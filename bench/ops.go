package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/cuszhi/stream"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Trace lanes (Chrome trace tids) for spans not issued by a client goroutine.
const (
	laneFlusher = 1000 // the Writer's flusher goroutine writing the sink
	laneReadAt  = 2000 // ReaderAt calls from ReadPlanes' decode workers
)

// bench holds one workload's inputs and output files during a run.
type bench struct {
	w     workload
	dir   string
	raw   string // the raw input file, page cached by set-up
	field []float32
	dims  []int
	eb    float64 // absolute, or relative when w.relEB
	opts  []stream.Option
	seq   int
	prev  []string   // outputs of the previous round trip, unlinked before the next
	heap  *heapWatch // when set, each round trip records its peak heap

	// Verification: each shard's absolute bound, the field's value range,
	// and one plane of scratch.
	shardEB []float64
	rng     float64
	out     []float32
	buf     []byte
}

func newBench(w workload, dir string, field []float32, dims []int) *bench {
	b := &bench{w: w, dir: dir, raw: filepath.Join(dir, "input.f32"), field: field, dims: dims}
	_, _, b.rng = metrics.Range(field)
	if w.relEB {
		b.eb = relEB
		b.opts = []stream.Option{stream.WithAutoMode(), stream.WithRelativeEB()}
	} else {
		b.eb = relEB * b.rng
		b.opts = []stream.Option{stream.WithMode(w.mode)}
	}
	shard := stream.DefaultChunkPlanes * b.planeElems()
	for lo := 0; lo < len(field); lo += shard {
		eb := b.eb
		if w.relEB {
			minV, maxV, _ := core.ShardRange(field[lo:min(lo+shard, len(field))])
			eb *= float64(maxV) - float64(minV)
		}
		b.shardEB = append(b.shardEB, eb)
	}
	return b
}

func (b *bench) planeElems() int { return len(b.field) / b.dims[0] }

func (b *bench) rawBytes() int64 { return 4 * int64(len(b.field)) }

// fresh names a path no op has written yet.
func (b *bench) fresh(ext string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("op%05d%s", b.seq, ext))
}

// compressOp is one timed file→store op: the page-cached raw file is copied
// with io.Copy into a stream.Writer over a 1 MiB bufio.Writer on a fresh
// store file, then the Writer is closed, the buffer flushed and the store
// fsynced, so a finished op means a sealed store on stable storage.
func (b *bench) compressOp(store string, t *tracer, op int) (sels []stream.AutoSelection, err error) {
	root := t.begin("op.compress", -1, op, 0)
	defer t.end(root, 0)
	src, err := os.Open(b.raw)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	f, err := os.OpenFile(store, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(t.writer(f, "io.sink_write", root, op, laneFlusher), 1<<20)
	var sw *stream.Writer
	t.timed("stream.newwriter", root, op, 0, func() { sw, err = stream.NewWriter(bw, b.dims, b.eb, b.opts...) })
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(t.writer(sw, "stream.write", root, op, 0), t.reader(src, "io.src_read", root, op, 0)); err != nil {
		sw.Close()
		return nil, err
	}
	t.timed("stream.close", root, op, 0, func() { err = sw.Close() })
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	t.timed("io.fsync", root, op, 0, func() { err = f.Sync() })
	if err != nil {
		return nil, err
	}
	return sw.AutoSelections(), f.Close()
}

// decompressOp is one timed store→file op: a stream.Reader over the store
// is copied with io.Copy into a fresh .f32 file, which is closed but not
// fsynced (a decompressed field is a re-derivable product).
func (b *bench) decompressOp(store, out string, t *tracer, op int) (dims []int, err error) {
	root := t.begin("op.decompress", -1, op, 0)
	defer t.end(root, 0)
	src, err := os.Open(store)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var r *stream.Reader
	t.timed("stream.newreader", root, op, 0, func() { r, err = stream.NewReader(t.reader(src, "io.store_read", root, op, 0)) })
	if err != nil {
		return nil, err
	}
	defer r.Close()
	dst, err := os.OpenFile(out, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	defer dst.Close()
	if _, err := io.Copy(t.writer(dst, "io.dst_write", root, op, 0), t.reader(r, "stream.read", root, op, 0)); err != nil {
		return nil, err
	}
	return r.Dims(), dst.Close()
}

// roundTrip is one compress op followed by one decompress op of its store.
type roundTrip struct {
	comp, decomp time.Duration
	store        string
	storeBytes   int64
	psnr         float64
	sels         []stream.AutoSelection
	// Runtime counters across the two ops, verification excluded.
	allocBytes, gcs, gcPauseNs uint64
	heapPeakMB                 float64
}

// runRoundTrip runs a round trip and verifies it outside the timed region,
// recording both ops in tl. Outputs of the previous round trip are unlinked
// first, also outside the timed region, so every op writes a fresh path.
// A GC before each round trip starts every one from the same heap, so the
// verification's garbage is never collected on an op's time.
func (b *bench) runRoundTrip(t *tracer, op int, tl *tally) (roundTrip, bool) {
	b.removeOutputs()
	runtime.GC()
	rt := roundTrip{store: b.fresh(".cszh")}
	out := b.fresh(".f32")
	b.prev = []string{rt.store, out}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.heap.take()
	t0 := time.Now()
	sels, err := b.compressOp(rt.store, t, op)
	rt.comp = time.Since(t0)
	if !tl.record("compress", err) {
		return rt, false
	}
	rt.sels = sels
	t0 = time.Now()
	dims, err := b.decompressOp(rt.store, out, t, op)
	rt.decomp = time.Since(t0)
	rt.heapPeakMB = b.heap.take()
	runtime.ReadMemStats(&m1)
	rt.allocBytes, rt.gcs, rt.gcPauseNs = m1.TotalAlloc-m0.TotalAlloc, uint64(m1.NumGC-m0.NumGC), m1.PauseTotalNs-m0.PauseTotalNs
	if err == nil {
		rt.storeBytes, rt.psnr, err = b.verify(rt.store, out, dims)
	}
	return rt, tl.record("decompress", err)
}

// removeOutputs unlinks the previous round trip's store and output.
func (b *bench) removeOutputs() {
	for _, p := range b.prev {
		os.Remove(p)
	}
	b.prev = nil
}

// verify checks a decompressed file against the input: dims, size, and
// every value within its shard's bound. It streams the file plane by plane,
// so checking never holds a second copy of the field, and returns the
// store size and the reconstruction's PSNR.
func (b *bench) verify(store, out string, dims []int) (int64, float64, error) {
	if !slices.Equal(dims, b.dims) {
		return 0, 0, fmt.Errorf("dims %v, want %v", dims, b.dims)
	}
	st, err := os.Stat(store)
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Open(out)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if fst, err := f.Stat(); err != nil || fst.Size() != b.rawBytes() {
		return 0, 0, fmt.Errorf("decompressed file is not %d bytes (%v)", b.rawBytes(), err)
	}
	ps := b.planeElems()
	if len(b.buf) != 4*ps {
		b.buf = make([]byte, 4*ps)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var sq float64
	for z := 0; z < b.dims[0]; z++ {
		if _, err := io.ReadFull(r, b.buf); err != nil {
			return 0, 0, err
		}
		b.out = decodeRaw(b.out, b.buf)
		orig := b.field[z*ps : (z+1)*ps]
		eb := b.shardEB[z/stream.DefaultChunkPlanes]
		if i := metrics.FirstViolation(orig, b.out, eb); i != -1 {
			return 0, 0, fmt.Errorf("value %d off by %g, bound %g", z*ps+i, math.Abs(float64(orig[i])-float64(b.out[i])), eb)
		}
		for i, v := range b.out {
			d := float64(orig[i]) - float64(v)
			sq += d * d
		}
	}
	// Value-range PSNR, as metrics.Compare defines it.
	mse := sq / float64(len(b.field))
	return st.Size(), 20*math.Log10(b.rng) - 10*math.Log10(mse), nil
}

// Open-loop window reads.

const (
	windowPlanes = 8  // planes per window read
	windowRate   = 10 // window requests issued per second
)

// windowStats is what an open loop of window reads measured.
type windowStats struct {
	latency []time.Duration // completion minus due time, per window
	late    []time.Duration // start minus due time: how late the generator ran
	chunks  int             // chunks decoded, summed over windows
}

// windowLoop issues window reads on a fixed schedule, windowRate per
// second from now until deadline (at least minWindows), through at most
// nproc goroutines. Each request is timed from when it was due, so a
// stall also counts against the requests queued behind it. Every window
// is compared bit for bit with ref outside its timed region.
func (b *bench) windowLoop(ra *stream.ReaderAt, ref []float32, deadline time.Time, minWindows, workers int, seed int64, t *tracer, tl *tally) windowStats {
	ps := b.planeElems()
	n := max(minWindows, int(time.Until(deadline).Seconds()*windowRate))
	// Windows start at multiples of windowPlanes, so each lies inside one
	// shard, and walk a seeded permutation of those starts, so every run
	// reads each part of the store equally often. Unaligned windows that
	// straddle two shards take half as long again; at one in five of the
	// requests they put p90 on the seam between the two latencies, where it
	// swung by 12% across seeds.
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(b.dims[0] / windowPlanes)
	offs := make([]int, n)
	for i := range offs {
		offs[i] = windowPlanes * perm[i%len(perm)]
	}
	interval := time.Second / windowRate
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var ws windowStats
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var dst []float32
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				began := time.Now()
				lo, hi := offs[i], offs[i]+windowPlanes
				root := t.begin("op.window", -1, i, worker)
				var err error
				t.timed("stream.readplanes", root, i, worker, func() { dst, err = ra.ReadPlanes(dst, lo, hi) })
				t.end(root, 0)
				done := time.Now()
				if err == nil {
					err = sameBits(dst, ref[lo*ps:hi*ps])
				}
				mu.Lock()
				if tl.record("window", err) {
					ws.latency = append(ws.latency, done.Sub(due))
					ws.late = append(ws.late, began.Sub(due))
					ws.chunks += ra.CoveringChunks(lo, hi)
				}
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return ws
}

func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("window has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("window value %d is %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}

// tally counts attempted and failed ops; a failed op keeps its error text.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one op and reports whether it succeeded.
func (tl *tally) record(kind string, err error) bool {
	tl.attempted++
	if err == nil {
		return true
	}
	tl.failed++
	if len(tl.errs) < 20 {
		tl.errs = append(tl.errs, kind+": "+err.Error())
	}
	return false
}

// Order statistics.

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method); with fewer than two values every quartile is the
// value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
