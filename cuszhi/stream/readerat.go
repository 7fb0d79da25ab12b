// Random access into compressed containers: OpenReaderAt builds (or
// loads) a chunk index over an io.ReaderAt and ReadPlanes decodes an
// arbitrary plane range while reading only the shards that cover it.
// Within a covering shard, an interpolation payload (hi-cr, hi-tp,
// cusz-i, cusz-ib) reconstructs only the blocks that own the requested
// planes — each block is predicted from its own anchors, so the rest are
// never needed. The error verdict stays whole-shard: a shard that fails a
// whole decode fails every window over it. Lorenzo and backend payloads
// decode whole and are sliced.
//
// Seekable (v4/v5) containers carry the index as a footer, so opening one
// touches the header, the fixed 12-byte tail and the index body — no
// payload bytes (for heterogeneous v5 containers the footer also names
// each chunk's codec, so dispatch needs no payload access either). Older
// chunked containers (v2/v3) have no footer; the
// open walks their frame headers once, skipping every payload by offset
// arithmetic, and serves the same API from the scan-built index. One-shot
// v1 blobs have a single monolithic payload, so the first ReadPlanes
// decodes the whole field once and later calls slice the cached
// reconstruction.
package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

// ReaderAt serves random-access plane reads from a compressed container.
// It is safe for concurrent use: the index is immutable after Open and
// every ReadPlanes call works on its own buffers.
type ReaderAt struct {
	src     io.ReaderAt
	size    int64
	dev     *gpusim.Device
	version int
	dims    []int
	ps      int // elements per plane
	eb      float64
	relEB   bool

	// Chunked containers (v2–v5).
	h        *core.ChunkedInfo
	index    []core.IndexEntry
	frameEnd []int64 // frame i spans [index[i].FrameOff, frameEnd[i])

	// One-shot (v1) blobs: the whole field, decoded once on demand.
	v1once  sync.Once
	v1field []float32
	v1err   error

	// Degraded mode (WithDegraded): damaged chunks are filled, not fatal.
	degraded bool
	fill     float32
}

// OpenReaderAt indexes the container held by src (size bytes long) for
// random access. v4 containers are opened from their chunk-index footer
// without touching any chunk payload; v2/v3 containers get an equivalent
// index from one scan of their frame headers; v1 blobs fall back to a
// whole-field decode on first use. WithWorkers, WithRetry (transient-I/O
// retry on every read, index loads included), WithDegraded and
// WithFillValue affect a ReaderAt; the writer-side options are ignored.
func OpenReaderAt(src io.ReaderAt, size int64, opt ...Option) (*ReaderAt, error) {
	cfg := newConfig(opt)
	src = cfg.retry.WrapReaderAt(src)
	version, h, headerLen, err := core.OpenChunked(src, size)
	if err != nil {
		return nil, err
	}
	r := &ReaderAt{src: src, size: size, dev: cfg.dev, version: version,
		degraded: cfg.degraded, fill: cfg.fill}
	if h == nil {
		// A v1 blob: parse dims/eb from the prefix; the payload stays
		// untouched until the first ReadPlanes.
		head := make([]byte, min(size, 4096))
		if err := core.ReadFullAt(src, head, 0); err != nil {
			return nil, core.ErrCorrupt
		}
		info, err := core.Inspect(head)
		if err != nil {
			return nil, err
		}
		r.dims, r.eb = info.Dims, info.EB
		r.ps = planeElems(r.dims)
		return r, nil
	}
	r.h, r.dims, r.eb, r.relEB = h, h.Dims, h.EB, h.RelEB
	r.ps = planeElems(r.dims)
	if h.Version >= 4 {
		entries, framesEnd, err := core.LoadIndex(src, size, h, headerLen)
		if err != nil {
			return nil, err
		}
		return r, r.setIndex(entries, framesEnd)
	}
	// No footer: build the index from one walk of the frame headers,
	// skipping every payload by offset arithmetic.
	entries := make([]core.IndexEntry, 0, h.NumChunks)
	w := core.WalkAt(h, src, size, headerLen)
	err = w.Walk(h.NumChunks, func(f core.Frame) error {
		entries = append(entries, f.Entry)
		return nil
	})
	if err == nil && (!w.Covered() || w.Off != size) {
		err = core.ErrCorrupt
	}
	if err != nil {
		return nil, err
	}
	return r, r.setIndex(entries, size)
}

// setIndex installs the entries and derives each frame's end offset (the
// next frame's start; the last frame ends where the frames end).
func (r *ReaderAt) setIndex(entries []core.IndexEntry, framesEnd int64) error {
	r.index = entries
	r.frameEnd = make([]int64, len(entries))
	for i := range entries {
		if i+1 < len(entries) {
			r.frameEnd[i] = entries[i+1].FrameOff
		} else {
			r.frameEnd[i] = framesEnd
		}
		if r.frameEnd[i] <= entries[i].FrameOff {
			return core.ErrCorrupt
		}
	}
	return nil
}

// Dims returns the field's dims, slowest first.
func (r *ReaderAt) Dims() []int { return append([]int(nil), r.dims...) }

// EB returns the container's error bound: absolute, or value-range-
// relative when RelativeEB reports true.
func (r *ReaderAt) EB() float64 { return r.eb }

// RelativeEB reports whether the container's bound is value-range-relative,
// resolved per shard from each shard's own range.
func (r *ReaderAt) RelativeEB() bool { return r.relEB }

// Version reports the container's format version.
func (r *ReaderAt) Version() int { return r.version }

// NumChunks reports how many independently decodable shards the container
// holds (0 for a one-shot v1 blob).
func (r *ReaderAt) NumChunks() int { return len(r.index) }

// CodecHistogram counts the container's chunks per codec name. For
// heterogeneous (v5) containers the counts come straight from the chunk
// index — no payload bytes are read; other versions return nil (their
// chunks share the container-level mode).
func (r *ReaderAt) CodecHistogram() map[string]int {
	if r.version < 5 {
		return nil
	}
	hist := make(map[string]int)
	for _, e := range r.index {
		if cd, ok := core.CodecByID(e.Codec); ok {
			hist[cd.Name()]++
		}
	}
	return hist
}

// coveringRange returns the run [a, b) of index entries whose shards
// overlap planes [lo, hi). The index tiles [0, dims[0]) contiguously, so
// the covering shards are always one run.
func (r *ReaderAt) coveringRange(lo, hi int) (a, b int) {
	a = sort.Search(len(r.index), func(i int) bool { return r.index[i].PlaneOff+r.index[i].Planes > lo })
	b = sort.Search(len(r.index), func(i int) bool { return r.index[i].PlaneOff >= hi })
	return a, b
}

// CoveringChunks reports how many shards a ReadPlanes(lo, hi) call would
// decode (0 for a one-shot v1 blob, which decodes whole).
func (r *ReaderAt) CoveringChunks(lo, hi int) int {
	a, b := r.coveringRange(lo, hi)
	return b - a
}

// ReadPlanes decodes planes [lo, hi) of the field into dst (grown if its
// capacity is short) and returns it. Only the ⌈(hi−lo+skew)/chunkPlanes⌉
// shards covering the range are read and decoded, concurrently, each
// through a pooled codec context that also holds the frame bytes; of each
// shard, only the interpolation blocks owning requested planes are
// reconstructed. A window fails with ErrCorrupt exactly when a whole
// decode of a covering shard would, even for damage in blocks the window
// skips. Calls may run concurrently as long as their dst buffers are
// distinct.
func (r *ReaderAt) ReadPlanes(dst []float32, lo, hi int) ([]float32, error) {
	if lo < 0 || hi > r.dims[0] || lo >= hi {
		return nil, fmt.Errorf("stream: plane range %d:%d outside field with %d planes", lo, hi, r.dims[0])
	}
	need := (hi - lo) * r.ps
	if cap(dst) < need {
		dst = make([]float32, need)
	} else {
		dst = dst[:need]
	}
	if r.version == 1 {
		field, err := r.v1Field()
		if err != nil {
			return nil, err
		}
		copy(dst, field[lo*r.ps:hi*r.ps])
		return dst, nil
	}
	a, b := r.coveringRange(lo, hi)
	if r.degraded {
		return r.readPlanesDegraded(dst, a, b, lo, hi)
	}
	_, err := pipeline.MapWorker(r.dev.Workers(), b-a, func(_, j int) (struct{}, error) {
		return struct{}{}, r.decodeChunkInto(dst, a+j, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// readPlanesDegraded decodes the covering chunks [a, b) like ReadPlanes
// but survives damage: a chunk that fails to read, verify or decode has
// its planes filled with the sentinel and is recorded instead of aborting
// the call. When anything was filled the error is a *DamageReport, so the
// data is never returned unflagged.
func (r *ReaderAt) readPlanesDegraded(dst []float32, a, b, lo, hi int) ([]float32, error) {
	var mu sync.Mutex
	var dmg []ChunkDamage
	_, _ = pipeline.MapWorker(r.dev.Workers(), b-a, func(_, j int) (struct{}, error) {
		i := a + j
		// Record the bare cause: ChunkDamage carries the chunk index and
		// offset itself, so the locator wrap would only double the prefix.
		if err := r.decodeChunk(dst, i, lo, hi); err != nil {
			e := r.index[i]
			s0, s1 := clampSpan(e.PlaneOff, e.PlaneOff+e.Planes, lo, hi)
			for k := (s0 - lo) * r.ps; k < (s1-lo)*r.ps; k++ {
				dst[k] = r.fill
			}
			mu.Lock()
			dmg = append(dmg, ChunkDamage{
				Chunk: i, Offset: e.FrameOff, PlaneOff: s0, Planes: s1 - s0, Err: err})
			mu.Unlock()
		}
		return struct{}{}, nil
	})
	if len(dmg) > 0 {
		sort.Slice(dmg, func(x, y int) bool { return dmg[x].Chunk < dmg[y].Chunk })
		return dst, &DamageReport{Chunks: dmg}
	}
	return dst, nil
}

// decodeChunkInto reads, verifies and decodes chunk i, copying the planes
// it contributes to [lo, hi) into their place in dst. Failures carry the
// chunk's index and byte offset, so damage is localizable from the error
// text alone.
func (r *ReaderAt) decodeChunkInto(dst []float32, i, lo, hi int) error {
	if err := r.decodeChunk(dst, i, lo, hi); err != nil {
		return fmt.Errorf("stream: chunk %d @0x%x: %w", i, r.index[i].FrameOff, err)
	}
	return nil
}

func (r *ReaderAt) decodeChunk(dst []float32, i, lo, hi int) error {
	e := r.index[i]
	ctx := arena.Get()
	defer arena.Put(ctx)
	buf := ctx.Bytes(int(r.frameEnd[i] - e.FrameOff))
	if err := core.ReadFullAt(r.src, buf, e.FrameOff); err != nil {
		if core.IsTransient(err) {
			// The storage failed, not the format: surface the I/O error (the
			// retry budget, if any, is already spent) so callers can tell a
			// flaky device from a rotten store.
			return err
		}
		return core.ErrCorrupt // truncation: the frame cannot be complete
	}
	// The payload stays a subslice of buf: no per-window copy.
	w := core.WalkBlob(r.h, buf, e.FrameOff, e.FrameOff)
	f, err := w.NextEntry(e, r.frameEnd[i])
	if err == nil {
		err = w.VerifyCRC(f)
	}
	if err != nil {
		return err
	}
	s0, s1 := clampSpan(e.PlaneOff, e.PlaneOff+e.Planes, lo, hi)
	recon, err := core.DecompressShardPlanesCtx(ctx, r.dev, f.Info, f.Payload, s0-e.PlaneOff, s1-e.PlaneOff)
	if err != nil {
		return err
	}
	copy(dst[(s0-lo)*r.ps:(s1-lo)*r.ps], recon)
	return nil
}

// clampSpan intersects the plane span [s0, s1) with the request [lo, hi).
func clampSpan(s0, s1, lo, hi int) (int, int) {
	return max(s0, lo), min(s1, hi)
}

// v1Field decodes a one-shot blob's whole field once, caching it for later
// ReadPlanes calls.
func (r *ReaderAt) v1Field() ([]float32, error) {
	r.v1once.Do(func() {
		blob := make([]byte, r.size)
		if err := core.ReadFullAt(r.src, blob, 0); err != nil {
			r.v1err = core.ErrCorrupt
			return
		}
		field, dims, err := core.DecompressCtx(nil, r.dev, blob)
		if err != nil {
			r.v1err = err
			return
		}
		if len(dims) != len(r.dims) || dims[0] != r.dims[0] {
			r.v1err = core.ErrCorrupt
			return
		}
		r.v1field = field
	})
	return r.v1field, r.v1err
}

// planeElems returns the element count of one plane along dims[0].
func planeElems(dims []int) int {
	ps := 1
	for _, d := range dims[1:] {
		ps *= d
	}
	return ps
}

// ReadPlanesAt is a one-shot convenience: it opens src and reads planes
// [lo, hi) in a single call. Callers issuing repeated reads should keep
// the ReaderAt instead, amortizing the index load.
func ReadPlanesAt(src io.ReaderAt, size int64, lo, hi int, opt ...Option) ([]float32, []int, error) {
	r, err := OpenReaderAt(src, size, opt...)
	if err != nil {
		return nil, nil, err
	}
	vals, err := r.ReadPlanes(nil, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	return vals, r.Dims(), nil
}
