// Package stream compresses and decompresses fields as a sequence of
// chunks, so callers can process data larger than memory and overlap
// codec work across CPU cores.
//
// A Writer accepts raw little-endian float32 bytes (or values), shards
// them into slabs of chunkPlanes planes along the slowest dimension,
// compresses the shards concurrently on a worker pool, and frames them
// into a multi-chunk container on the underlying io.Writer — with the
// frames emitted in order, so the output is deterministic. The container
// is seekable: a chunk-index footer at the tail lets OpenReaderAt decode
// any plane range while reading only the covering shards. An assembly
// mode writes format v4; a backend mode (fzgpu, szp, szx) and auto mode
// write format v5, whose chunk frames and index footer record each
// chunk's codec wire ID — with WithAutoMode every shard is compressed by
// whichever registered codec scores best on a sample of it. Each shard
// goes through core.EncodeShard, the one per-shard body every chunked
// writer shares, so Compress/CompressAbs (a Writer over a buffer) and
// cuszhi.WithChunkPlanes emit the same bytes for the same mode. A Reader
// reverses the process sequentially, decompressing chunks concurrently
// while serving the reconstruction as a byte stream. All formats
// interoperate with the one-shot API: cuszhi.Decompress reads every
// container version and stream.NewReader reads v1 blobs.
//
//	w, _ := stream.NewWriter(f, dims, absEB, stream.WithMode(cuszhi.ModeTP))
//	io.Copy(w, rawFile) // little-endian float32 bytes
//	err := w.Close()
package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/cuszhi"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

// errReaderClosed is the sticky error a Reader reports after Close.
var errReaderClosed = errors.New("stream: reader closed")

// DefaultChunkPlanes is the default shard thickness along the slowest
// dimension: thick enough that per-shard codec overheads (Huffman tables,
// anchor grids) stay small, thin enough that a 3-D field yields plenty of
// shards to parallelize over.
const DefaultChunkPlanes = 32

type config struct {
	mode        cuszhi.Mode
	modeSet     bool // an explicit WithMode/WithAutoMode was passed
	dev         *gpusim.Device
	chunkPlanes int
	relative    bool
	index       bool
	retry       core.RetryPolicy
	degraded    bool
	fill        float32 // plane filler for degraded reads (default NaN)
	policy      string  // auto-mode selection policy spelling (default best-ratio)
}

// Option customizes a Writer, Reader, or one-shot call.
type Option func(*config)

// WithMode selects the compressor assembly (default cuszhi.ModeCR).
func WithMode(m cuszhi.Mode) Option {
	return func(c *config) { c.mode, c.modeSet = m, true }
}

// WithWorkers sets the parallel width (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.dev = gpusim.New(n) }
}

// WithChunkPlanes sets the shard thickness in planes along the slowest
// dimension (default DefaultChunkPlanes).
func WithChunkPlanes(n int) Option {
	return func(c *config) { c.chunkPlanes = n }
}

// WithRelativeEB makes the Writer treat its error bound as value-range-
// relative, resolved per shard from that shard's own range (format v3):
// no pre-pass over the field is needed, and because a shard's range never
// exceeds the global range, the reconstruction also satisfies the bound
// relative to the full field's range.
func WithRelativeEB() Option {
	return func(c *config) { c.relative = true }
}

// WithIndex controls whether the Writer finishes its container with a
// chunk-index footer (format v4/v5), making the output seekable through
// OpenReaderAt. It is on by default; WithIndex(false) reverts an assembly
// mode to the plain v2/v3 layout for consumers pinned to the older
// formats. Backend and auto modes require the index (their v5 footer
// records each chunk's codec ID).
func WithIndex(on bool) Option {
	return func(c *config) { c.index = on }
}

// WithAutoMode makes the Writer pick the best codec per shard: each shard
// is scored against the auto-select candidates by the estimator cascade
// (histogram entropy models for the assemblies, a strided probe for the
// backends) inside the worker that compresses it — only the winner
// compresses the shard for real — and the container is written as format
// v5 with the winning codec's wire ID recorded per chunk frame and in the
// chunk-index footer. Shorthand for WithMode(cuszhi.ModeAuto).
func WithAutoMode() Option {
	return func(c *config) { c.mode, c.modeSet = cuszhi.ModeAuto, true }
}

// WithAutoPolicy sets how auto mode ranks the candidates' size estimates:
// "best-ratio" (default) takes the smallest estimate, "throughput" the
// fastest codec within 15% of it, and "ratio-floor:F" the fastest codec
// whose estimated compression ratio is at least F. Only meaningful with
// WithAutoMode; NewWriter rejects unknown spellings.
func WithAutoPolicy(name string) Option {
	return func(c *config) { c.policy = name }
}

// WithRetry makes readers reissue transiently failing I/O (an EIO from a
// flaky device, an NFS hiccup) up to attempts total tries per read, sleeping
// baseDelay before the second try and doubling from there (capped at 1s).
// Permanent failures — corruption, truncation — are never retried. Default
// off; when off the fault-free path pays nothing, not even a wrapper.
func WithRetry(attempts int, baseDelay time.Duration) Option {
	return func(c *config) { c.retry = core.RetryPolicy{Attempts: attempts, BaseDelay: baseDelay} }
}

// WithDegraded makes reads survive damaged chunks instead of aborting: a
// chunk whose CRC, codec cross-check, or decode fails is skipped, the
// planes it covered are filled with the WithFillValue sentinel (default
// NaN), and the read reports a *DamageReport error listing every filled
// region. Data is never returned unflagged: a nil error still means every
// plane is bit-exact.
func WithDegraded() Option {
	return func(c *config) { c.degraded = true }
}

// WithFillValue sets the value degraded reads write into planes lost to
// damaged chunks (default NaN, which no bounded-error codec emits unless
// the input held NaN).
func WithFillValue(v float32) Option {
	return func(c *config) { c.fill = v }
}

// spec resolves the configured mode and selection policy into the spec of
// a version-ver container (0: the newest layout the mode needs) through
// core.ResolveEncodeSpec, the resolver cuszhi.New uses too.
func (c *config) spec(ver int) (core.EncodeSpec, error) {
	spec, err := core.ResolveEncodeSpec(string(c.mode), c.policy, ver)
	if err != nil {
		return spec, fmt.Errorf("stream: %w", err)
	}
	return spec, nil
}

func newConfig(opts []Option) config {
	c := config{mode: cuszhi.ModeCR, dev: gpusim.Default, chunkPlanes: DefaultChunkPlanes,
		index: true, fill: float32(math.NaN())}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// ---------------------------------------------------------------------------
// Writer.

// wframe is a compressed chunk frame with its index entry, so the flusher
// can build the v4/v5 chunk index as the frames stream out.
type wframe struct {
	data  []byte
	entry core.IndexEntry // FrameOff set by the flusher
}

// Writer streams a field into a chunked container. Feed it exactly
// prod(dims) float32 values (as little-endian bytes via Write, or directly
// via WriteValues), then Close. A Writer from OpenAppend instead grows an
// existing store: it takes any number of whole planes, and its Close
// reseals the store (header rewrite + fsync-ordered footer) rather than
// just finishing a fixed-size container.
type Writer struct {
	w         io.Writer
	f         File  // appendable sink (grow mode); nil for plain writers
	grow      bool  // appendable store: no declared total, Close reseals
	headerLen int64 // global header length on f (grow mode)
	dev       *gpusim.Device
	spec      core.EncodeSpec // how every shard is encoded and framed
	dims      []int
	ps        int // elements per plane
	cp        int // planes per shard
	tot       int // elements in the whole field (0 in grow mode)
	plane     int // planes submitted so far

	partial []byte         // trailing bytes of an incomplete value (<4)
	vals    []float32      // accumulating current shard
	conv    []float32      // scratch for Write's byte->float conversion
	slabs   chan []float32 // recycled shard slabs from completed jobs

	// idx/wOff are owned by the flusher goroutine until flushed closes;
	// Close reads them afterwards (the channel close orders the accesses).
	idx  []core.IndexEntry
	wOff int64 // bytes written to w so far

	pool    *pipeline.Pool[wframe]
	flushed chan struct{}
	closeMu sync.Mutex // serializes Close end to end
	mu      sync.Mutex // guards werr and closed
	werr    error      // first flusher error
	closed  bool

	selMu sync.Mutex      // guards sels (appended by pool workers)
	sels  []AutoSelection // auto mode: one record per shard, sorted at read
}

// AutoSelection records one auto-mode shard decision: which codec the
// estimator picked and how its predicted size compared to the bytes the
// winner actually produced — the estimator-vs-actual delta that makes the
// selection observable.
type AutoSelection struct {
	PlaneOff int     // first plane the shard covers
	Planes   int     // planes in the shard
	Codec    string  // winning codec's wire name
	EstBytes int     // estimator's predicted payload size
	Bytes    int     // payload size the winner actually produced
	EstRatio float64 // predicted compression ratio
	Ratio    float64 // achieved compression ratio
}

// NewWriter writes the container header to w and returns a Writer for a
// field of the given dims (slowest first) under error bound eb — absolute
// by default, or value-range-relative with WithRelativeEB (resolved per
// shard). An assembly mode writes seekable format v4 (chunk-index footer)
// unless WithIndex(false) selects the plain v2/v3 layout. A backend mode,
// or WithAutoMode (each shard compressed by whichever registered codec
// scores best on a sample of it), writes format v5 — the per-chunk codec
// IDs live in the frames and the index footer, so the index cannot be
// disabled there.
func NewWriter(w io.Writer, dims []int, eb float64, opt ...Option) (*Writer, error) {
	cfg := newConfig(opt)
	ver := 0
	if !cfg.index {
		ver = 2 // plain layout; v3 when frames must carry ranges
		if cfg.relative {
			ver = 3
		}
	}
	spec, err := cfg.spec(ver)
	if err != nil {
		return nil, err
	}
	spec.EB, spec.Relative = eb, cfg.relative
	header, err := core.AppendChunkedHeaderSized(nil, spec.Version, dims, eb, cfg.relative, cfg.chunkPlanes, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(header); err != nil {
		return nil, err
	}
	ps := planeElems(dims)
	sw := &Writer{
		w:       w,
		dev:     cfg.dev,
		spec:    spec,
		dims:    append([]int(nil), dims...),
		ps:      ps,
		cp:      cfg.chunkPlanes,
		tot:     ps * dims[0],
		wOff:    int64(len(header)),
		slabs:   make(chan []float32, 2*cfg.dev.Workers()+2),
		pool:    pipeline.New[wframe](cfg.dev.Workers(), 0),
		flushed: make(chan struct{}),
	}
	sw.vals = make([]float32, 0, sw.cp*ps)
	go sw.flusher()
	return sw, nil
}

// flusher drains compressed frames in submission order and writes them to
// the underlying writer, recording each frame's byte offset and plane span
// for the chunk index. After an error it keeps draining (discarding
// results) so submitters never block on a full backlog.
func (w *Writer) flusher() {
	defer close(w.flushed)
	for {
		frame, err, ok := w.pool.Next()
		if !ok {
			return
		}
		if err == nil && w.err() == nil {
			if _, err = w.w.Write(frame.data); err == nil {
				frame.entry.FrameOff = w.wOff
				w.idx = append(w.idx, frame.entry)
				w.wOff += int64(len(frame.data))
			}
		}
		if err != nil {
			w.setErr(err)
		}
	}
}

func (w *Writer) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.werr == nil {
		w.werr = err
	}
	w.mu.Unlock()
}

func (w *Writer) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Write accepts little-endian float32 bytes. It implements io.Writer so a
// raw field file can be piped in with io.Copy. The consumed-byte count it
// returns always matches the stream's state: bytes count as consumed once
// they sit in the pending-partial buffer or in a value the shard
// accumulator absorbed — a value rejected outright (e.g. overfeeding the
// declared dims) leaves its bytes unconsumed.
func (w *Writer) Write(p []byte) (int, error) {
	if w.isClosed() {
		return 0, fmt.Errorf("stream: write after Close")
	}
	n := len(p)
	if len(w.partial) > 0 {
		need := 4 - len(w.partial)
		if need > len(p) {
			w.partial = append(w.partial, p...)
			return n, w.err()
		}
		w.partial = append(w.partial, p[:need]...)
		p = p[need:]
		v := math.Float32frombits(binary.LittleEndian.Uint32(w.partial))
		before := w.plane*w.ps + len(w.vals)
		err := w.WriteValues([]float32{v})
		if err != nil && w.plane*w.ps+len(w.vals) == before {
			// The assembled value was rejected before being absorbed, so
			// the bytes this call moved into the partial buffer were not
			// consumed: put the buffer back and report them unconsumed.
			w.partial = w.partial[:4-need]
			return 0, err
		}
		w.partial = w.partial[:0]
		if err != nil {
			return n - len(p), err
		}
	}
	if w.conv == nil {
		w.conv = make([]float32, 1<<14)
	}
	for len(p) >= 4 {
		c := len(p) / 4
		if c > len(w.conv) {
			c = len(w.conv)
		}
		for i := 0; i < c; i++ {
			w.conv[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
		before := w.plane*w.ps + len(w.vals)
		if err := w.WriteValues(w.conv[:c]); err != nil {
			// Count whatever prefix of this batch was absorbed before the
			// failure; the rest of p stays unconsumed.
			return n - len(p) + 4*(w.plane*w.ps+len(w.vals)-before), err
		}
		p = p[4*c:]
	}
	w.partial = append(w.partial, p...)
	return n, w.err()
}

// WriteValues accepts float32 values directly, copying them slab-wise into
// the accumulating shard (no per-value bookkeeping on the ingest path).
func (w *Writer) WriteValues(vs []float32) error {
	if w.isClosed() {
		return fmt.Errorf("stream: write after Close")
	}
	for len(vs) > 0 {
		// A grow-mode writer has no declared total: every whole plane is
		// welcome, and Close seals however many arrived.
		pushed := w.plane*w.ps + len(w.vals)
		if !w.grow && pushed >= w.tot {
			err := fmt.Errorf("stream: more than %d values written for dims %v", w.tot, w.dims)
			w.setErr(err) // sticky: Close must report it too
			return err
		}
		space := w.cp*w.ps - len(w.vals)
		if !w.grow {
			if rem := w.tot - pushed; space > rem {
				space = rem
			}
		}
		c := space
		if c > len(vs) {
			c = len(vs)
		}
		w.vals = append(w.vals, vs[:c]...)
		vs = vs[c:]
		if len(w.vals) == w.cp*w.ps {
			w.submitShard()
		}
	}
	return w.err()
}

// submitShard hands the accumulated slab to the pool and starts a fresh
// accumulation buffer (recycled from a completed shard when one is free).
// Each job runs core.EncodeShard through a pooled codec context, so
// steady-state streaming performs near-zero allocations per shard; a
// per-shard codec pick is recorded for AutoSelections.
func (w *Writer) submitShard() {
	shard := w.vals
	offset := w.plane
	planes := len(shard) / w.ps
	w.plane += planes
	select {
	case s := <-w.slabs:
		w.vals = s[:0]
	default:
		w.vals = make([]float32, 0, w.cp*w.ps)
	}
	dev, spec := w.dev, w.spec
	shardDims := append([]int{planes}, w.dims[1:]...)
	w.pool.Submit(func() (wframe, error) {
		ctx := arena.Get()
		defer arena.Put(ctx)
		frame, entry, pick, err := core.EncodeShard(ctx, dev, shard, shardDims, offset, spec)
		if err != nil {
			return wframe{}, fmt.Errorf("stream: %w", err)
		}
		if pick.Codec != "" {
			w.selMu.Lock()
			w.sels = append(w.sels, AutoSelection{
				PlaneOff: offset, Planes: planes, Codec: pick.Codec,
				EstBytes: pick.EstBytes, Bytes: pick.ActualBytes,
				EstRatio: pick.EstRatio, Ratio: pick.ActualRatio,
			})
			w.selMu.Unlock()
		}
		select {
		case w.slabs <- shard: // recycle the slab for a future shard
		default:
		}
		return wframe{data: frame, entry: entry}, nil
	})
}

// AutoSelections reports the per-shard decisions an auto-mode Writer has
// made so far, sorted by plane offset: the winning codec and the
// estimator's predicted size and ratio next to what the winner actually
// produced. Call it after Close for the complete container; it returns nil
// for non-auto writers. The slice is a copy, safe to keep.
func (w *Writer) AutoSelections() []AutoSelection {
	w.selMu.Lock()
	out := append([]AutoSelection(nil), w.sels...)
	w.selMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].PlaneOff < out[j].PlaneOff })
	return out
}

// Close flushes the final (possibly short) shard, waits for all frames to
// reach the underlying writer, and verifies the full field was supplied.
// For a grow-mode Writer (OpenAppend) it instead reseals the store around
// the old and new chunks together. Close is idempotent and safe to race
// with itself: every call returns the writer's first error, and the worker
// pool is shut down exactly once.
func (w *Writer) Close() error {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.err()
	}
	w.closed = true
	w.mu.Unlock()
	var closeErr error
	switch {
	case len(w.partial) != 0:
		closeErr = fmt.Errorf("stream: %d trailing bytes do not form a float32", len(w.partial))
	case len(w.vals) > 0 && len(w.vals)%w.ps != 0:
		closeErr = fmt.Errorf("stream: field truncated mid-plane (%d stray values)", len(w.vals)%w.ps)
	default:
		if len(w.vals) > 0 {
			w.submitShard()
		}
		if !w.grow && w.plane != w.dims[0] {
			closeErr = fmt.Errorf("stream: got %d of %d planes for dims %v", w.plane, w.dims[0], w.dims)
		}
	}
	w.pool.Close()
	<-w.flushed
	w.pool.Wait()
	if closeErr != nil {
		w.setErr(closeErr) // sticky: a repeated Close reports the failure too
	}
	if w.grow {
		// Reseal the store around old + new chunks. On any prior error the
		// store is left unsealed instead: a footer must never bless a tail
		// the flusher did not finish — Repair recovers the CRC-valid prefix.
		if w.err() == nil {
			if err := w.seal(); err != nil {
				w.setErr(err)
			}
		}
		return w.err()
	}
	if w.spec.Version >= 4 && w.err() == nil {
		// Every frame reached the sink; finish the container with the
		// chunk-index footer so the output is seekable from its tail.
		footer := core.AppendChunkIndexFooter(nil, w.spec.Version, w.wOff, w.idx)
		if _, err := w.w.Write(footer); err != nil {
			w.setErr(err)
		}
	}
	return w.err()
}

// Planes reports how many whole planes the writer's container covers so
// far: shards already submitted plus, once Close flushes it, the final
// short shard. For an OpenAppend writer this starts at the store's
// recovered plane count.
func (w *Writer) Planes() int { return w.plane }

// seal commits a grow-mode store: header rewritten for the grown plane
// count, stale tail truncated, footer written tail-last, all fsync-ordered.
// Only called after the flusher drained cleanly, so idx and wOff are
// final and every frame is on the sink.
func (w *Writer) seal() error {
	if w.plane == 0 {
		return errors.New("stream: store holds no complete chunks")
	}
	dims := append([]int(nil), w.dims...)
	dims[0] = w.plane
	return sealStore(w.f, &sealSpec{
		ver: w.spec.Version, dims: dims, eb: w.spec.EB, rel: w.spec.Relative, cp: w.cp,
		headerLen: w.headerLen, entries: w.idx, framesEnd: w.wOff,
	})
}

// ---------------------------------------------------------------------------
// Reader.

// Reader streams the reconstruction of a compressed container as
// little-endian float32 bytes. It decodes chunked (v2–v5) containers
// chunk-by-chunk with concurrent workers; v1 (one-shot) blobs are decoded
// whole, so the formats are interchangeable at this API.
//
// A chunked Reader decodes exactly one container and then reports EOF
// without requiring the source to end (so it works on sockets and pipes
// held open by the producer). It buffers internally, so it may read ahead
// past the container's end — don't expect the source to be positioned
// exactly after the container; in particular a v4 container's chunk-index
// footer is simply left behind (or buffered over), never decoded. To
// reject trailing bytes strictly, decode the blob with Decompress instead.
type Reader struct {
	dims  []int
	eb    float64
	relEB bool // v3: eb is value-range-relative, resolved per shard

	pool   *pipeline.Pool[[]byte]
	quit   chan struct{} // closed by Close; stops the feeder
	cur    []byte        // undelivered bytes of the current shard
	err    error         // sticky
	done   bool
	closed bool

	// Degraded mode (WithDegraded): damaged chunks are filled, not fatal.
	degraded bool
	fill     float32
	damageMu sync.Mutex
	damaged  []ChunkDamage
}

// NewReader parses the container header from r and returns a Reader. The
// field's dims are available immediately via Dims. WithRetry reissues
// transiently failing source reads; WithDegraded survives damaged chunks
// (see Damage).
func NewReader(r io.Reader, opt ...Option) (*Reader, error) {
	cfg := newConfig(opt)
	br := bufio.NewReader(cfg.retry.WrapReader(r))
	pre, err := br.Peek(5)
	if err != nil {
		return nil, core.ErrCorrupt
	}
	version, ok := core.SniffVersion(pre)
	if !ok {
		return nil, core.ErrCorrupt // not a container: refuse before slurping
	}
	if version == 1 { // v1 one-shot blob: decode whole.
		blob, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		recon, dims, err := core.DecompressCtx(nil, cfg.dev, blob)
		if err != nil {
			return nil, err
		}
		sr := &Reader{dims: dims, done: true}
		// The blob just decoded, so a failing Inspect means the header is
		// corrupt in a way the decoder tolerated — surface it rather than
		// silently reporting EB() == 0.
		info, err := core.Inspect(blob)
		if err != nil {
			return nil, err
		}
		sr.eb = info.EB
		sr.cur = valueBytes(recon)
		return sr, nil
	}
	w, err := core.WalkStream(br)
	if err != nil {
		return nil, err
	}
	h := w.H
	sr := &Reader{
		dims:     h.Dims,
		eb:       h.EB,
		relEB:    h.RelEB,
		pool:     pipeline.New[[]byte](cfg.dev.Workers(), 0),
		quit:     make(chan struct{}),
		degraded: cfg.degraded,
		fill:     cfg.fill,
	}
	go sr.feed(&w, cfg.dev, sr.pool)
	return sr, nil
}

// Close releases the Reader's workers without requiring a full drain. A
// Reader read to EOF cleans up on its own; call Close when abandoning one
// early, or defer it unconditionally. Close and Read must not be called
// concurrently.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.done = true
	r.cur = nil
	if r.err == nil {
		// Distinct from io.EOF so an abandoned reader is never mistaken
		// for a completely consumed one.
		r.err = errReaderClosed
	}
	if r.pool != nil {
		close(r.quit)
		// Drain in-flight results so a feeder blocked on a full backlog
		// unblocks, sees quit, and closes the pool; workers then exit.
		pool := r.pool
		r.pool = nil
		go func() {
			for {
				if _, _, ok := pool.Next(); !ok {
					return
				}
			}
		}()
	}
	return nil
}

// errStopWalk ends the feeder's frame walk early: the Reader was closed,
// or a failed job that reports why is already submitted.
var errStopWalk = errors.New("stream: frame walk stopped")

// feed walks the chunk frames with w and submits their decompression to
// the pool; Read collects shards in order. Each job decodes through a
// pooled codec context and serializes the slab to bytes before the context
// is recycled. The pool is passed explicitly because Close detaches r.pool
// while the feeder may still be running.
//
// The walker reads each payload whole without checking its CRC, leaving
// the stream at the next frame, so in degraded mode a CRC mismatch is
// recorded and its chunk replaced by filler planes while the walk
// continues. Structural damage — an unparseable frame header, a plane-
// offset mismatch — still aborts: past it the stream position is
// indeterminate.
func (r *Reader) feed(w *core.FrameWalker, dev *gpusim.Device, pool *pipeline.Pool[[]byte]) {
	defer pool.Close()
	ps := planeElems(w.H.Dims)
	fail := func(err error) { pool.Submit(func() ([]byte, error) { return nil, err }) }
	err := w.Walk(w.H.NumChunks, func(f core.Frame) error {
		e := f.Entry
		if err := w.VerifyCRC(f); err != nil {
			if !r.degraded {
				fail(fmt.Errorf("stream: chunk %d @0x%x: %w", f.Chunk, e.FrameOff, err))
				return errStopWalk
			}
			r.recordDamage(ChunkDamage{Chunk: f.Chunk, Offset: e.FrameOff, PlaneOff: e.PlaneOff, Planes: e.Planes, Err: err})
			pool.Submit(func() ([]byte, error) { return fillBytes(e.Planes*ps, r.fill), nil })
		} else {
			pool.Submit(func() ([]byte, error) { return r.decodeFrame(dev, f, ps) })
		}
		select {
		case <-r.quit:
			return errStopWalk
		default:
			return nil
		}
	})
	switch {
	case err == errStopWalk:
	case err != nil:
		fail(fmt.Errorf("stream: chunk %d @0x%x: %w", w.Frames, w.Off, err))
	case !w.Covered():
		fail(core.ErrCorrupt)
	}
	// Unlike the one-shot blob decoder (which rejects trailing bytes —
	// a blob is exactly one container), the streaming reader stops after
	// one container without probing for EOF: probing would block forever
	// on a socket or pipe the producer keeps open.
}

// decodeFrame decodes one CRC-checked frame's payload to float32 bytes.
func (r *Reader) decodeFrame(dev *gpusim.Device, f core.Frame, ps int) ([]byte, error) {
	ctx := arena.Get()
	defer arena.Put(ctx)
	recon, err := core.DecompressShardCtx(ctx, dev, f.Info, f.Payload)
	if err == nil {
		return valueBytes(recon), nil
	}
	e := f.Entry
	if !r.degraded {
		return nil, fmt.Errorf("stream: chunk %d @0x%x: %w", f.Chunk, e.FrameOff, err)
	}
	// The payload CRC passed but decode failed (rot in the uncovered
	// frame-header bytes): fill rather than abort.
	r.recordDamage(ChunkDamage{Chunk: f.Chunk, Offset: e.FrameOff, PlaneOff: e.PlaneOff, Planes: e.Planes, Err: err})
	return fillBytes(e.Planes*ps, r.fill), nil
}

// recordDamage appends one damaged-chunk record (decode jobs run
// concurrently, so the slice is mutex-guarded).
func (r *Reader) recordDamage(d ChunkDamage) {
	r.damageMu.Lock()
	r.damaged = append(r.damaged, d)
	r.damageMu.Unlock()
}

// Damage reports what a degraded Reader filled instead of decoding: nil
// when every delivered plane is bit-exact, else a report listing each
// damaged chunk. Call it after draining the Reader — damage is recorded as
// chunks are encountered, so a mid-stream call may miss later chunks.
func (r *Reader) Damage() *DamageReport {
	r.damageMu.Lock()
	defer r.damageMu.Unlock()
	if len(r.damaged) == 0 {
		return nil
	}
	chunks := append([]ChunkDamage(nil), r.damaged...)
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Chunk < chunks[j].Chunk })
	return &DamageReport{Chunks: chunks}
}

// fillBytes returns n float32 values of v as little-endian bytes — the
// filler a degraded read delivers for planes lost to a damaged chunk.
func fillBytes(n int, v float32) []byte {
	bits := math.Float32bits(v)
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], bits)
	}
	return out
}

// Dims returns the field's dims, slowest first.
func (r *Reader) Dims() []int { return append([]int(nil), r.dims...) }

// EB returns the container's error bound: absolute, or value-range-
// relative when RelativeEB reports true.
func (r *Reader) EB() float64 { return r.eb }

// RelativeEB reports whether the container's bound is value-range-relative
// (format v3), resolved per shard from each shard's own range.
func (r *Reader) RelativeEB() bool { return r.relEB }

// Read serves the reconstructed field as little-endian float32 bytes.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(p) {
		if len(r.cur) == 0 {
			if r.done {
				if n > 0 {
					return n, nil
				}
				r.err = io.EOF
				return 0, io.EOF
			}
			shard, err, ok := r.pool.Next()
			if !ok {
				r.done = true
				continue
			}
			if err != nil {
				r.err = err
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
			r.cur = shard
		}
		c := copy(p[n:], r.cur)
		n += c
		r.cur = r.cur[c:]
	}
	return n, nil
}

// ReadAllValues drains the reader into a []float32.
func (r *Reader) ReadAllValues() ([]float32, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

func valueBytes(vs []float32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// ---------------------------------------------------------------------------
// One-shot conveniences.

// Compress encodes data into a chunked container under a value-range-
// relative error bound, compressing shards concurrently.
func Compress(data []float32, dims []int, relEB float64, opt ...Option) ([]byte, error) {
	return CompressAbs(data, dims, cuszhi.AbsEB(data, relEB), opt...)
}

// CompressAbs is Compress with an absolute error bound: a Writer over an
// in-memory buffer, so every Writer option applies.
func CompressAbs(data []float32, dims []int, absEB float64, opt ...Option) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, opt...)
	if err != nil {
		return nil, err
	}
	err = w.WriteValues(data)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress decodes a container of either format, reassembling v2 chunks
// concurrently.
func Decompress(blob []byte, opt ...Option) ([]float32, []int, error) {
	cfg := newConfig(opt)
	return core.DecompressCtx(nil, cfg.dev, blob)
}
