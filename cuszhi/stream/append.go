// Crash-safe appendable stores: OpenAppend re-opens a chunked container —
// including one a dead writer left without a footer — and continues
// appending planes to it; Repair truncates a torn tail and reseals without
// appending; CheckStore reports what either would do, read-only.
//
// The commit story. A store is *sealed* when its global header matches the
// frames and (v4/v5) a chunk-index footer covers them; only Close seals.
// Between OpenAppend and Close the store is deliberately unsealed: the old
// footer is truncated away up front, so at any crash point the file is
// header + CRC-framed chunks + at most one torn tail. Sealing is ordered
// for recovery, not speed: frames and the rewritten header are fsynced
// before any footer byte, the footer body is fsynced before the fixed
// 12-byte tail, and the tail's `cSZi` backpointer — the only thing that
// makes readers trust the footer — is written last and fsynced. A crash
// anywhere in that ladder leaves either no tail (footer ignored) or a tail
// whose backpointer/CRC disagrees with the frames (footer rejected), and
// core.ScanRecovery reconstructs the index from the frames themselves.
//
// Because appends grow dims[0], the header must be rewritten in place on
// every seal. Its two growing uvarints (dims[0], chunk count) are padded —
// non-minimal LEB128 — to keep the header length fixed. If a grown value
// outruns the padding, seal relocates the frames once to a header wide
// enough for every legal value (a crash inside that one-time move can cost
// trailing chunks, never the prefix at the original offsets).
package stream

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/cuszhi"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// File is the sink an appendable store lives on: positioned reads and
// writes, truncation, and a durability barrier. *os.File satisfies it.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
}

// offsetWriter adapts a File to the sequential io.Writer the frame flusher
// expects, appending at a moving offset.
type offsetWriter struct {
	f   io.WriterAt
	off int64
}

func (o *offsetWriter) Write(p []byte) (int, error) {
	n, err := o.f.WriteAt(p, o.off)
	o.off += int64(n)
	return n, err
}

// storeSize learns f's current size from Stat (an *os.File) or a seek to
// the end.
func storeSize(f File) (int64, error) {
	if st, ok := f.(interface{ Stat() (os.FileInfo, error) }); ok {
		fi, err := st.Stat()
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	if sk, ok := f.(io.Seeker); ok {
		return sk.Seek(0, io.SeekEnd)
	}
	return 0, errors.New("stream: store size unknown (sink has neither Stat nor Seek)")
}

// CheckStore scans the container on f read-only and reports its recovered
// state: the CRC-valid chunk prefix, how many trailing bytes a Repair
// would drop (TailBytes), and whether the store is already Sealed. It is
// the dry-run behind the CLI's repair -dry-run.
func CheckStore(f File) (*core.RecoveryInfo, error) {
	size, err := storeSize(f)
	if err != nil {
		return nil, err
	}
	return core.ScanRecovery(f, size)
}

// Repair makes the container on f sealed and decodable again after a
// crash: it truncates everything past the last CRC-valid frame boundary,
// rewrites the global header to cover exactly the recovered chunks, and
// (v4/v5) writes a fresh chunk-index footer, fsync-ordered as described in
// the package comment. The returned RecoveryInfo describes the store as
// found, before repair. A store that is already sealed is left untouched.
// A store with no complete chunks cannot be made decodable and is
// reported as an error, unmodified.
func Repair(f File) (*core.RecoveryInfo, error) {
	rec, err := CheckStore(f)
	if err != nil {
		return nil, err
	}
	if rec.Sealed() {
		return rec, nil
	}
	if rec.Planes == 0 {
		return rec, errors.New("stream: no complete chunks to recover")
	}
	h := rec.Header
	dims := append([]int(nil), h.Dims...)
	dims[0] = rec.Planes
	st := &sealSpec{
		ver: h.Version, dims: dims, eb: h.EB, rel: h.RelEB, cp: h.ChunkPlanes,
		headerLen: rec.HeaderLen, framesEnd: rec.FramesEnd,
		entries: append([]core.IndexEntry(nil), rec.Entries...),
	}
	if err := sealStore(f, st); err != nil {
		return rec, err
	}
	return rec, nil
}

// OpenAppend re-opens the container on f — sealed, or torn by a crash —
// and returns a Writer that appends whole planes to it. Opening first
// repairs: anything past the last CRC-valid frame boundary (a partial
// frame, a torn footer, or the previous seal's footer) is truncated away,
// so the store is unsealed until Close, which reseals it around the old
// and new chunks together. Unlike NewWriter, the Writer has no declared
// total: feed any number of whole planes (none is fine) and Close.
//
// The store fixes the plane shape, error bound and chunk thickness; shape
// options on opt are ignored. The codec is re-derived from the frames on
// disk — a v5 store continues with its uniform codec, or adaptively when
// its chunks mix codecs or it has none yet; a v2–v4 store continues with
// the assembly its last frame names — and WithMode/WithAutoMode override
// that, within what the store's format can carry (codec-ID modes and auto
// need a v5 store).
func OpenAppend(f File, opt ...Option) (*Writer, error) {
	size, err := storeSize(f)
	if err != nil {
		return nil, err
	}
	rec, err := core.ScanRecovery(f, size)
	if err != nil {
		return nil, err
	}
	cfg := newConfig(opt)
	spec, err := appendSpec(rec, cfg)
	if err != nil {
		return nil, err
	}
	// The writer buffers one whole shard; a hostile header with huge dims
	// or chunk thickness must not turn that into an absurd (or int-
	// overflowed) allocation. Any store a Writer actually produced buffered
	// the same shard when it was written, so real stores pass easily.
	const maxShardElems = 1 << 28
	shardElems := int64(rec.Header.ChunkPlanes)
	for _, d := range rec.Header.Dims[1:] {
		shardElems *= int64(d)
		if shardElems > maxShardElems {
			return nil, fmt.Errorf("stream: store shard footprint %v × %d planes is too large to append to", rec.Header.Dims[1:], rec.Header.ChunkPlanes)
		}
	}
	// Unseal: drop the torn tail (or the previous footer) before the first
	// new frame lands, so no crash point can leave a stale footer that
	// still parses over bytes new frames half-overwrote.
	if err := f.Truncate(rec.FramesEnd); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	h := rec.Header
	ps := planeElems(h.Dims)
	w := &Writer{
		w:         &offsetWriter{f: f, off: rec.FramesEnd},
		f:         f,
		grow:      true,
		headerLen: rec.HeaderLen,
		dev:       cfg.dev,
		spec:      spec,
		dims:      append([]int(nil), h.Dims...),
		ps:        ps,
		cp:        h.ChunkPlanes,
		plane:     rec.Planes,
		idx:       append([]core.IndexEntry(nil), rec.Entries...),
		wOff:      rec.FramesEnd,
		slabs:     make(chan []float32, 2*cfg.dev.Workers()+2),
		pool:      pipeline.New[wframe](cfg.dev.Workers(), 0),
		flushed:   make(chan struct{}),
	}
	// Capacity is a hint, not a commitment: a store can legally declare a
	// shard footprint far larger than what this session will feed, so start
	// modest and let append growth find the real working set.
	w.vals = make([]float32, 0, min(w.cp*ps, 1<<20))
	go w.flusher()
	return w, nil
}

// appendSpec resolves the spec a re-opened store continues with: the
// explicit WithMode/WithAutoMode when one was passed, else whatever the
// frames on disk prove — either way through the one mode resolver, at the
// store's version, so a mode the format cannot carry (codec IDs need v5)
// and a selection policy without auto mode are refused as in NewWriter.
func appendSpec(rec *core.RecoveryInfo, cfg config) (core.EncodeSpec, error) {
	h := rec.Header
	if !cfg.modeSet {
		cd, uniform, ok := rec.RecoveredCodec()
		switch {
		case uniform:
			cfg.mode = cuszhi.Mode(cd.Name())
		case ok || h.Version >= 5 && len(rec.Entries) == 0:
			// Chunks mix codecs, or an empty v5 store: adaptive covers any mix.
			cfg.mode = cuszhi.ModeAuto
		case len(rec.Entries) > 0:
			return core.EncodeSpec{}, errors.New("stream: store frames match no registered codec; pass WithMode")
		}
		// An empty pre-v5 store continues with the default assembly.
	}
	spec, err := cfg.spec(h.Version)
	spec.EB, spec.Relative = h.EB, h.RelEB
	return spec, err
}

// sealSpec is everything sealStore needs to make a store self-describing
// again: the header fields to rewrite and the frames the footer must cover.
type sealSpec struct {
	ver       int
	dims      []int // dims[0] = planes the entries cover
	eb        float64
	rel       bool
	cp        int
	headerLen int64
	entries   []core.IndexEntry
	framesEnd int64
}

// sealStore commits the store: header rewritten in place (relocating the
// frames once if it outgrew its padding), stale tail truncated, and — for
// v4/v5 — the index footer written with its backpointer tail last, each
// step fsynced before the next depends on it.
func sealStore(f File, st *sealSpec) error {
	hdr, err := core.AppendChunkedHeaderSized(nil, st.ver, st.dims, st.eb, st.rel, st.cp, len(st.entries), int(st.headerLen))
	if err != nil {
		if hdr, err = widenHeader(f, st); err != nil {
			return err
		}
	}
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := f.Truncate(st.framesEnd); err != nil {
		return err
	}
	// Barrier: header and frames are durable before any footer byte claims
	// to describe them.
	if err := f.Sync(); err != nil {
		return err
	}
	if st.ver < 4 {
		return nil // v2/v3 stores have no footer; the header seals them
	}
	footer := core.AppendChunkIndexFooter(nil, st.ver, st.framesEnd, st.entries)
	body, tail := footer[:len(footer)-core.IndexTailLen], footer[len(footer)-core.IndexTailLen:]
	if _, err := f.WriteAt(body, st.framesEnd); err != nil {
		return err
	}
	// Barrier: the body is durable before the tail's backpointer makes
	// readers trust it. Until the tail lands, the footer is invisible.
	if err := f.Sync(); err != nil {
		return err
	}
	if _, err := f.WriteAt(tail, st.framesEnd+int64(len(body))); err != nil {
		return err
	}
	return f.Sync()
}

// widenHeader handles the once-per-store case where a grown dims[0] or
// chunk count no longer fits the header's padding: it rebuilds the header
// with both growing uvarints at width 5 — enough for every value the
// format permits, so no store ever relocates twice — and moves the frames
// up to make room, updating st in place.
func widenHeader(f File, st *sealSpec) ([]byte, error) {
	minimal, err := core.AppendChunkedHeaderSized(nil, st.ver, st.dims, st.eb, st.rel, st.cp, len(st.entries), 0)
	if err != nil {
		return nil, err
	}
	padTo := len(minimal) - bitio.UvarintLen(uint64(st.dims[0])) - bitio.UvarintLen(uint64(len(st.entries))) + 10
	if padTo <= int(st.headerLen) {
		// The minimal header fits after all: AppendChunkedHeaderSized must
		// have rejected the spec itself, not the padding.
		return nil, fmt.Errorf("stream: cannot reseal store header: %d planes in %d chunks", st.dims[0], len(st.entries))
	}
	delta := int64(padTo) - st.headerLen
	if err := shiftFrames(f, st.headerLen, st.framesEnd, delta); err != nil {
		return nil, err
	}
	for i := range st.entries {
		st.entries[i].FrameOff += delta
	}
	st.headerLen += delta
	st.framesEnd += delta
	return core.AppendChunkedHeaderSized(nil, st.ver, st.dims, st.eb, st.rel, st.cp, len(st.entries), padTo)
}

// shiftFrames moves the byte range [start, end) of f up by delta,
// copying backward in bounded blocks so the source is never overwritten
// before it is read.
func shiftFrames(f File, start, end, delta int64) error {
	buf := make([]byte, 1<<20)
	for pos := end; pos > start; {
		n := int64(len(buf))
		if pos-start < n {
			n = pos - start
		}
		pos -= n
		if err := core.ReadFullAt(f, buf[:n], pos); err != nil {
			return err
		}
		if _, err := f.WriteAt(buf[:n], pos+delta); err != nil {
			return err
		}
	}
	return nil
}
