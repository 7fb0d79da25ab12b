// Random access into compressed containers. OpenReaderAt indexes a
// container over an io.ReaderAt with core.OpenIndex, and ReadPlanes
// decodes an arbitrary plane range with core's one chunked decode loop,
// Index.DecodePlanes — the same driver the in-memory decode runs over all
// planes, so a window and a whole decode cannot disagree on bits or
// verdict. Only the shards covering the range are read, and within one,
// an interpolation payload (hi-cr, hi-tp, cusz-i, cusz-ib) reconstructs
// only the blocks that own the requested planes: each block is predicted
// from its own anchors, so the rest are never needed. The error verdict
// stays whole-shard: a shard that fails a whole decode fails every window
// over it. Lorenzo and backend payloads decode whole and are sliced.
//
// Seekable (v4/v5) containers carry the index as a footer, so opening one
// touches the header, the fixed 12-byte tail and the index body — no
// payload bytes (for v5 the footer also names each chunk's codec). Older
// chunked containers (v2/v3) have no footer; the open walks their frame
// headers once, skipping every payload by offset arithmetic. One-shot v1
// blobs have a single monolithic payload, so the first ReadPlanes decodes
// the whole field once and later calls slice the cached reconstruction.
// Degraded mode (WithDegraded) is a failure hook on the shared loop: a
// damaged chunk's planes are filled and recorded instead of aborting.
package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/gpusim"
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

	ix *core.Index // chunked containers (v2–v5); nil for a v1 blob

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
	version, ix, err := core.OpenIndex(src, size)
	if err != nil {
		return nil, err
	}
	r := &ReaderAt{src: src, size: size, dev: cfg.dev, version: version, ix: ix,
		degraded: cfg.degraded, fill: cfg.fill}
	if ix == nil {
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
	} else {
		r.dims, r.eb, r.relEB = ix.H.Dims, ix.H.EB, ix.H.RelEB
	}
	r.ps = planeElems(r.dims)
	return r, nil
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
func (r *ReaderAt) NumChunks() int {
	if r.ix == nil {
		return 0
	}
	return len(r.ix.Entries)
}

// CodecHistogram counts the container's chunks per codec name. For
// heterogeneous (v5) containers the counts come straight from the chunk
// index — no payload bytes are read; other versions return nil (their
// chunks share the container-level mode).
func (r *ReaderAt) CodecHistogram() map[string]int {
	if r.version < 5 {
		return nil
	}
	hist := make(map[string]int)
	for _, e := range r.ix.Entries {
		if cd, ok := core.CodecByID(e.Codec); ok {
			hist[cd.Name()]++
		}
	}
	return hist
}

// CoveringChunks reports how many shards a ReadPlanes(lo, hi) call would
// decode (0 for a one-shot v1 blob, which decodes whole).
func (r *ReaderAt) CoveringChunks(lo, hi int) int {
	if r.ix == nil {
		return 0
	}
	a, b := r.ix.Covering(lo, hi)
	return b - a
}

// ReadPlanes decodes planes [lo, hi) of the field into dst (grown if its
// capacity is short) and returns it. Only the ⌈(hi−lo+skew)/chunkPlanes⌉
// shards covering the range are read and decoded, concurrently, each
// through a pooled codec context that also holds the frame bytes; of each
// shard, only the interpolation blocks owning requested planes are
// reconstructed. A window fails with ErrCorrupt exactly when a whole
// decode of a covering shard would, even for damage in blocks the window
// skips; the error names the chunk and its byte offset. Calls may run
// concurrently as long as their dst buffers are distinct.
//
// A degraded reader survives damage instead: a chunk that fails to read,
// verify or decode has its planes filled with the fill value and is
// recorded, and when anything was filled the error is a *DamageReport, so
// the data is never returned unflagged.
func (r *ReaderAt) ReadPlanes(dst []float32, lo, hi int) ([]float32, error) {
	if lo < 0 || hi > r.dims[0] || lo >= hi {
		return nil, fmt.Errorf("stream: plane range %d:%d outside field with %d planes", lo, hi, r.dims[0])
	}
	if r.ix == nil {
		field, err := r.v1Field()
		if err != nil {
			return nil, err
		}
		return append(dst[:0], field[lo*r.ps:hi*r.ps]...), nil
	}
	if !r.degraded {
		return r.ix.DecodePlanes(nil, r.dev, dst, lo, hi, nil)
	}
	var mu sync.Mutex
	var dmg []ChunkDamage
	dst, err := r.ix.DecodePlanes(nil, r.dev, dst, lo, hi, func(i int, span []float32, err error) {
		for k := range span {
			span[k] = r.fill
		}
		// Record the bare cause: ChunkDamage carries the chunk index and
		// offset itself.
		e := r.ix.Entries[i]
		mu.Lock()
		dmg = append(dmg, ChunkDamage{Chunk: i, Offset: e.FrameOff, PlaneOff: max(e.PlaneOff, lo),
			Planes: len(span) / r.ps, Err: err})
		mu.Unlock()
	})
	if err != nil || len(dmg) == 0 {
		return dst, err
	}
	sort.Slice(dmg, func(x, y int) bool { return dmg[x].Chunk < dmg[y].Chunk })
	return dst, &DamageReport{Chunks: dmg}
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
