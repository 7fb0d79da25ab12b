package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"repro/cuszhi/stream"
)

// metricSpec names one metric the JSON summary carries. BENCHMARK.json
// lists the same names and units (a test keeps the two in step) and adds
// each end-to-end metric's regression bound.
type metricSpec struct{ name, unit, better string }

// endToEnd are the gated metrics of an untraced run. Every workload reports
// every one. "op" is a round trip (compress op + decompress op) on the
// write workloads and one window request, timed from its due time, on
// window-reads; window-reads takes its compress and decompress rates from
// the few round trips that build its store.
var endToEnd = []metricSpec{
	{"compress_mbps", "MB/s", "higher"},
	{"decompress_mbps", "MB/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ratio", "x", "higher"},
	{"psnr_db", "dB", "higher"},
	{"heap_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run, named after the module whose
// public functions the span wraps. Codec-stage times are shares of the
// replay's Codec.Compress (encode stages) or Codec.Decompress (decode
// stages) time, so a stage a workload never runs reads 0%.
var perLayer = []metricSpec{
	{"stream.write_s", "s", "lower"},
	{"stream.close_s", "s", "lower"},
	{"stream.read_s", "s", "lower"},
	{"stream.readplanes_s", "s", "lower"},
	{"pipeline.parallel_efficiency", "ratio", "higher"},
	{"io.src_read_s", "s", "lower"},
	{"io.sink_write_s", "s", "lower"},
	{"io.sink_write_calls", "count", "lower"},
	{"io.sink_bytes", "bytes", "lower"},
	{"io.fsync_s", "s", "lower"},
	{"io.store_read_s", "s", "lower"},
	{"io.dst_write_s", "s", "lower"},
	{"io.readat_s", "s", "lower"},
	{"io.readat_bytes", "bytes", "lower"},
	{"io.readat_calls", "count", "lower"},
	{"core.codec_compress_s", "s", "lower"},
	{"core.codec_decompress_s", "s", "lower"},
	{"core.shard_range_pct", "%", "lower"},
	{"core.estimate_pct", "%", "lower"},
	{"core.estimate_err_pct", "%", "lower"},
	{"core.frame_crc_pct", "%", "lower"},
	{"core.frame_parse_crc_pct", "%", "lower"},
	{"core.picks.hi-cr", "count", "higher"},
	{"core.picks.hi-tp", "count", "higher"},
	{"core.picks.cusz-l", "count", "higher"},
	{"core.picks.fzgpu", "count", "higher"},
	{"core.picks.szp", "count", "higher"},
	{"core.picks.szx", "count", "higher"},
	{"interp.autotune_pct", "%", "lower"},
	{"interp.predict_quant_pct", "%", "lower"},
	{"interp.reconstruct_pct", "%", "lower"},
	{"interp.mbps_computed", "MB/s", "higher"},
	{"quant.reorder_pct", "%", "lower"},
	{"quant.invert_pct", "%", "lower"},
	{"huffman.encode_pct", "%", "lower"},
	{"huffman.decode_pct", "%", "lower"},
	{"lccodec.encode_pct", "%", "lower"},
	{"lccodec.decode_pct", "%", "lower"},
	{"szp.encode_pct", "%", "lower"},
	{"szp.decode_pct", "%", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"read.decode_amplification", "ratio", "lower"},
	{"read.chunks_per_window", "count", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.decode_coverage_pct", "%", "higher"},
}

const (
	warmups = 2 // round trips run and discarded before the measured phase
	// windowRTs is how many round trips window-reads measures before its
	// open loop: they build the store the windows read.
	windowRTs = 12
	// maxTracedRTs caps the traced round trips, keeping the span file small.
	maxTracedRTs = 10
	// minCoverage is the share of Codec.Compress time the replayed layers
	// must account for; below it the layer breakdown misses a stage.
	minCoverage = 95
)

// phaseMin is the fewest ops a phase runs however short the run.
func (c config) phaseMin() int {
	if c.quick {
		return 2
	}
	return 3
}

// measuredRun is the untraced run behind the end-to-end metrics.
func (b *bench) measuredRun(cfg config, res *result) error {
	var tl tally
	for i := 0; i < warmups; i++ {
		b.runRoundTrip(nil, -1, &tally{})
	}
	runtime.GC()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	rtTarget := func(n int) bool { return time.Now().After(deadline) }
	if b.w.windows {
		rtTarget = func(n int) bool { return n >= max(windowRTs, cfg.phaseMin()) || cfg.quick }
	}
	var rts []roundTrip
	lastOK := false
	b.heap = watchHeap()
	for i := 0; len(rts) < cfg.phaseMin() || !rtTarget(len(rts)); i++ {
		if tl.failed > 2*cfg.phaseMin() {
			break
		}
		var rt roundTrip
		if rt, lastOK = b.runRoundTrip(nil, i, &tl); lastOK {
			rts = append(rts, rt)
		}
	}
	b.heap.stop()
	b.heap = nil
	var comp, decomp, rtt, peaks []float64
	for _, rt := range rts {
		comp = append(comp, rt.comp.Seconds())
		decomp = append(decomp, rt.decomp.Seconds())
		rtt = append(rtt, (rt.comp + rt.decomp).Seconds())
		peaks = append(peaks, rt.heapPeakMB)
	}
	mb := float64(b.rawBytes()) / 1e6
	res.add("compress_mbps", mb/percentile(comp, 50), "MB/s", len(comp))
	res.add("decompress_mbps", mb/percentile(decomp, 50), "MB/s", len(decomp))
	res.extra("compress_p90_s", percentile(comp, 90), "s", len(comp))
	res.extra("decompress_p90_s", percentile(decomp, 90), "s", len(decomp))
	op := rtt
	if len(rts) > 0 {
		last := rts[len(rts)-1]
		res.add("ratio", float64(b.rawBytes())/float64(last.storeBytes), "x", 1)
		res.add("psnr_db", last.psnr, "dB", 1)
		picks, estErr := selectionStats(last.sels)
		for c, n := range picks {
			res.extra("core.picks."+c, float64(n), "count", len(last.sels))
		}
		if len(picks) > 0 {
			res.extra("core.estimate_err_pct", estErr, "%", len(last.sels))
		}
		if b.w.windows && lastOK {
			ws, err := b.openWindows(last.store, deadline, cfg, nil, &tl)
			if err != nil {
				return err
			}
			op = seconds(ws.latency)
			res.extra("window_p99_ms", 1e3*percentile(op, 99), "ms", len(op))
			res.extra("gen.late_p99_ms", 1e3*percentile(seconds(ws.late), 99), "ms", len(ws.late))
			res.extra("windows_per_s", windowRate, "1/s", len(op))
		}
	}
	res.add("op_p50_ms", 1e3*percentile(op, 50), "ms", len(op))
	res.add("op_p90_ms", 1e3*blockP90(op), "ms", len(op))
	res.add("heap_peak_mb", percentile(peaks, 50), "MB", len(peaks))
	res.setTally(&tl)
	return nil
}

// blockP90 is the 90th percentile of a run's op times, made robust to
// bursts: the ops, in the order they ran, are split into up to five blocks
// of at least 25, and the median of the blocks' 90th percentiles is
// returned. A stretch of host noise that slows one block, which moved a
// plain p90 of window latencies by 10% across seeds, then moves it little.
func blockP90(xs []float64) float64 {
	k := min(5, max(1, len(xs)/25))
	p90s := make([]float64, k)
	for b := range p90s {
		p90s[b] = percentile(xs[b*len(xs)/k:(b+1)*len(xs)/k], 90)
	}
	return percentile(p90s, 50)
}

// heapWatch samples the Go heap in use (live objects and dead ones not yet
// swept) every millisecond and keeps the largest sample since it was last
// taken. The median over round trips of each one's peak is a peak heap that
// one late GC cycle cannot move, unlike the process's maximum RSS.
// A nil *heapWatch watches nothing.
type heapWatch struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				rtmetrics.Read(s)
				v := s[0].Value.Uint64()
				for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
				}
			}
		}
	}()
	return h
}

// take returns the peak in MB since the last take and starts a new one.
func (h *heapWatch) take() float64 {
	if h == nil {
		return 0
	}
	return float64(h.peak.Swap(0)) / 1e6
}

func (h *heapWatch) stop() {
	close(h.quit)
	<-h.done
}

// selectionStats summarises an auto-mode writer's picks: shards per codec
// and the estimator's mean size error against what the winners produced.
func selectionStats(sels []stream.AutoSelection) (map[string]int, float64) {
	picks := map[string]int{}
	var errPct float64
	for _, s := range sels {
		picks[s.Codec]++
		if s.Bytes > 0 {
			errPct += 100 * math.Abs(float64(s.EstBytes-s.Bytes)) / float64(s.Bytes)
		}
	}
	if len(sels) > 0 {
		errPct /= float64(len(sels))
	}
	return picks, errPct
}

// openWindows decodes the reference for store once through
// stream.Decompress, then runs the open loop of windows over it through a
// ReaderAt on the store file.
func (b *bench) openWindows(store string, deadline time.Time, cfg config, t *tracer, tl *tally) (windowStats, error) {
	blob, err := os.ReadFile(store)
	if err != nil {
		return windowStats{}, err
	}
	ref, _, err := stream.Decompress(blob)
	if err != nil {
		return windowStats{}, fmt.Errorf("reference decode: %w", err)
	}
	f, err := os.Open(store)
	if err != nil {
		return windowStats{}, err
	}
	defer f.Close()
	// Trace the windows' reads, not the index load at open.
	rat := &tracedReaderAt{r: f, name: "io.readat", tid: laneReadAt}
	ra, err := stream.OpenReaderAt(rat, int64(len(blob)))
	if err != nil {
		return windowStats{}, err
	}
	rat.t = t
	runtime.GC()
	return b.windowLoop(ra, ref, deadline, cfg.phaseMin(), workers(), cfg.seed, t, tl), nil
}

// traceRun is the traced run behind the per-layer metrics. It interleaves
// untraced and traced round trips (their difference is the tracing
// overhead), runs an open loop of traced windows, then replays every shard
// of the last traced store through the layers until the time is up.
func (b *bench) traceRun(cfg config, res *result) error {
	var tl tally
	defer res.setTally(&tl)
	t := newTracer()
	b.runRoundTrip(nil, -1, &tally{})
	runtime.GC()
	total := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()

	in := layerInputs{}
	lastOK := false
	for i := 0; len(in.traced) < cfg.phaseMin() || len(in.traced) < maxTracedRTs && time.Since(start) < total*2/5; i++ {
		if tl.failed > 2*cfg.phaseMin() {
			return nil
		}
		rt, ok := b.runRoundTrip(nil, -1, &tl)
		if ok {
			in.plain = append(in.plain, rt)
		}
		if rt, lastOK = b.runRoundTrip(t, i, &tl); lastOK {
			in.traced = append(in.traced, rt)
		}
	}
	if !lastOK || len(in.plain) == 0 {
		return nil
	}
	last := in.traced[len(in.traced)-1]
	var err error
	if in.ws, err = b.openWindows(last.store, time.Now().Add(total/4), cfg, t, &tl); err != nil {
		return err
	}

	store, err := os.ReadFile(last.store)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(b.prev[1])
	if err != nil {
		return err
	}
	recon := decodeRaw(nil, raw)
	for in.passes < 1 || time.Since(start) < total {
		rs, err := b.replay(t, store, recon, in.passes)
		if !tl.record("replay", err) {
			return nil
		}
		in.rs = rs
		in.passes++
	}
	in.sels = last.sels
	b.layerMetrics(res, t, in, cfg, &tl)
	res.SpanFile = filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", b.w.name, cfg.seed))
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	return t.writeChrome(res.SpanFile)
}

// layerInputs is what the traced run measured besides its spans.
type layerInputs struct {
	plain, traced []roundTrip // untraced and traced round trips
	ws            windowStats
	rs            replayStats // the last replay pass
	passes        int
	sels          []stream.AutoSelection
}

// layerMetrics turns the spans into the per-layer metrics: stream and I/O
// times per op, codec stages as shares of the replay's codec time.
func (b *bench) layerMetrics(res *result, t *tracer, in layerInputs, cfg config, tl *tally) {
	lt := t.totals()
	secs := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += lt.self[n].Seconds()
		}
		return s
	}
	nRT, nW, passes := len(in.traced), max(len(in.ws.latency), 1), in.passes
	set := func(name string, v float64, n int) {
		for _, m := range perLayer {
			if m.name == name {
				res.add(name, v, m.unit, n)
				return
			}
		}
		panic("bench: no per-layer metric " + name) // a typo in this file, not an input
	}
	perOp := func(name string, n int) float64 { return secs(name) / float64(n) }
	for _, n := range []string{"stream.write", "stream.close", "stream.read",
		"io.src_read", "io.sink_write", "io.fsync", "io.store_read", "io.dst_write"} {
		set(n+"_s", perOp(n, nRT), nRT)
	}
	set("stream.readplanes_s", perOp("stream.readplanes", nW), nW)
	set("io.readat_s", perOp("io.readat", nW), nW)
	set("io.sink_write_calls", float64(lt.calls["io.sink_write"])/float64(nRT), nRT)
	set("io.sink_bytes", float64(lt.bytes["io.sink_write"])/float64(nRT), nRT)
	set("io.readat_bytes", float64(lt.bytes["io.readat"])/float64(nW), nW)
	set("io.readat_calls", float64(lt.calls["io.readat"])/float64(nW), nW)

	var comp, plainRT, tracedRT []float64
	for _, rt := range in.plain {
		comp = append(comp, rt.comp.Seconds())
		plainRT = append(plainRT, (rt.comp + rt.decomp).Seconds())
	}
	for _, rt := range in.traced {
		tracedRT = append(tracedRT, (rt.comp + rt.decomp).Seconds())
	}
	// Codec busy time per field, from the serial replay, over the cores
	// the real writer had for its wall time.
	busy := secs("core.shard_range", "core.estimate", "core.codec_compress", "core.frame_crc") / float64(passes)
	set("pipeline.parallel_efficiency", busy/(float64(workers())*percentile(comp, 50)), len(comp))

	cc, cd := secs("core.codec_compress"), secs("core.codec_decompress")
	share := func(base float64, names ...string) float64 {
		if base == 0 {
			return 0
		}
		return 100 * secs(names...) / base
	}
	set("core.codec_compress_s", cc/float64(passes), passes)
	set("core.codec_decompress_s", cd/float64(passes), passes)
	for _, n := range []string{"core.shard_range", "core.estimate", "core.frame_crc", "interp.autotune",
		"interp.predict_quant", "quant.reorder", "huffman.encode", "lccodec.encode", "szp.encode"} {
		set(n+"_pct", share(cc, n), passes)
	}
	for _, n := range []string{"core.frame_parse_crc", "interp.reconstruct", "quant.invert", "huffman.decode",
		"lccodec.decode", "szp.decode"} {
		set(n+"_pct", share(cd, n), passes)
	}
	_, estErr := selectionStats(in.sels)
	set("core.estimate_err_pct", estErr, len(in.sels))
	shards := 0
	for _, n := range in.rs.picks {
		shards += n
	}
	for _, m := range perLayer {
		if c, ok := strings.CutPrefix(m.name, "core.picks."); ok {
			set(m.name, float64(in.rs.picks[c]), shards)
		}
	}
	mbps := 0.0
	if pq := secs("interp.predict_quant"); pq > 0 {
		mbps = float64(in.rs.interpBytes) / 1e6 / (pq / float64(passes))
	}
	set("interp.mbps_computed", mbps, passes)

	var alloc, gcs, pause float64
	for _, rt := range in.plain {
		alloc, gcs, pause = alloc+float64(rt.allocBytes), gcs+float64(rt.gcs), pause+float64(rt.gcPauseNs)
	}
	ops := max(2*len(in.plain), 1)
	set("runtime.alloc_mb_per_op", alloc/1e6/float64(ops), ops)
	set("runtime.gc_cycles_per_op", gcs/float64(ops), ops)
	set("runtime.gc_pause_ms_per_op", pause/1e6/float64(ops), ops)
	set("read.decode_amplification", float64(in.ws.chunks*stream.DefaultChunkPlanes)/float64(nW*windowPlanes), nW)
	set("read.chunks_per_window", float64(in.ws.chunks)/float64(nW), nW)
	set("gen.late_p99_ms", 1e3*percentile(seconds(in.ws.late), 99), len(in.ws.late))
	set("trace.overhead_pct", 100*(percentile(tracedRT, 50)/percentile(plainRT, 50)-1), len(tracedRT))

	// Coverage sums the layer spans under replay.encode other than core's
	// own range scan, selection and framing: the interp stages and every
	// "<module>.encode" (a backend codec is one such span, whole).
	enc, dec := []string{"interp.autotune", "interp.predict_quant", "quant.reorder"},
		[]string{"interp.reconstruct", "quant.invert"}
	for n := range lt.self {
		switch {
		case strings.HasPrefix(n, "replay."): // the shard's root spans
		case strings.HasSuffix(n, ".encode"):
			enc = append(enc, n)
		case strings.HasSuffix(n, ".decode"):
			dec = append(dec, n)
		}
	}
	coverage := share(cc, enc...)
	set("trace.coverage_pct", coverage, passes)
	set("trace.decode_coverage_pct", share(cd, dec...), passes)
	if !cfg.quick && coverage < minCoverage {
		tl.record("coverage", fmt.Errorf("replayed layers cover %.1f%% of Codec.Compress time, want at least %d%%", coverage, minCoverage))
	}
}
