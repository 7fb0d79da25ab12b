package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/cuszhi/stream"
)

// TestMain lets runWorkload re-execute the test binary as its measuring
// child, exactly as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func quickConfig(t *testing.T) config {
	return config{seed: 1, quick: true, workDir: t.TempDir(), traceDir: t.TempDir()}
}

// prepared sets a workload up in a fresh directory, as the parent does.
func prepared(t *testing.T, w workload) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := setUp(w, quickSize, 1, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestQuickWorkloads runs every workload's measured and traced phases on
// 64×32×32 fields: two ops per phase, every output verified, and in the
// traced run every replay check (payload suffix, frame bytes, decoded
// planes) on every shard.
func TestQuickWorkloads(t *testing.T) {
	cfg := quickConfig(t)
	for _, w := range workloads {
		dir := prepared(t, w)
		res, err := measure(cfg, w, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, m := range endToEnd {
			if m.name == "setup_s" {
				continue // added by the parent process
			}
			if got, ok := res.Metrics[m.name]; !ok || got.Value <= 0 || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.name, m.name, got, m.unit)
			}
		}

		traced := cfg
		traced.trace = true
		res, err = measure(traced, w, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Fatalf("%s traced: failed=%d errors=%v", w.name, res.Failed, res.Errors)
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: per-layer metric %s missing or not in %s: %+v", w.name, m.name, m.unit, got)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run reports %d metrics, want the %d per-layer ones", w.name, len(res.Metrics), len(perLayer))
		}
		var spans struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := readJSON(res.SpanFile, &spans); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		if len(spans.TraceEvents) == 0 || spans.TraceEvents[0].Ph != "X" {
			t.Errorf("%s: span file holds no complete events", w.name)
		}
	}
}

// TestRunWorkloadInChild drives the parent path: set-up repetitions, the
// measuring child process, and the metrics only the parent can add.
func TestRunWorkloadInChild(t *testing.T) {
	w, err := lookupWorkload("tp-turb")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(quickConfig(t), w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("errors: %v", res.Errors)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("got %d metrics, want %d: %v", len(res.Metrics), len(endToEnd), res.Metrics)
	}
	if res.Metrics["setup_s"].Value <= 0 || res.Extra["peak_rss_mb"].Value <= 0 {
		t.Errorf("setup_s = %v, peak_rss_mb = %v, want both > 0", res.Metrics["setup_s"], res.Extra["peak_rss_mb"])
	}
}

// TestFlippedPayloadByteIsAFailedOp damages one payload byte of a sealed
// store: the decompress op and the windows over that chunk must each count
// as failed, and nothing may panic.
func TestFlippedPayloadByteIsAFailedOp(t *testing.T) {
	w, err := lookupWorkload("window-reads")
	if err != nil {
		t.Fatal(err)
	}
	dir := prepared(t, w)
	buf, err := os.ReadFile(filepath.Join(dir, "input.f32"))
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, dir, decodeRaw(nil, buf), w.dims(quickSize))
	var tl tally
	rt, ok := b.runRoundTrip(nil, 0, &tl)
	if !ok {
		t.Fatalf("clean round trip failed: %v", tl.errs)
	}
	blob, err := os.ReadFile(rt.store)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := stream.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, entries, frames, err := storeIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob[entries[0].FrameOff+int64(len(frames[0])/2)] ^= 0x40
	if err := os.WriteFile(rt.store, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	out := b.fresh(".f32")
	if dims, err := b.decompressOp(rt.store, out, nil, 0); err == nil {
		if _, _, err := b.verify(rt.store, out, dims); err == nil {
			t.Fatalf("decompressing a damaged store succeeded")
		}
	}

	f, err := os.Open(rt.store)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, err := stream.OpenReaderAt(f, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// One pass over every window start: half of them lie in the damaged
	// first shard.
	tl = tally{}
	n := b.dims[0] / windowPlanes
	ws := b.windowLoop(ra, ref, time.Now(), n, 2, 1, nil, &tl)
	if tl.attempted != n || tl.failed != n/2 || len(ws.latency) != n-n/2 {
		t.Fatalf("windows over one damaged shard of two: attempted=%d failed=%d timed=%d", tl.attempted, tl.failed, len(ws.latency))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metric lists this package reports.
func TestBenchmarkJSON(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{[]float64{100, 100.5, 99.5, 100, 101}, true, "same"},
		{[]float64{80, 81, 79, 80, 80}, true, "worse"},
		{[]float64{80, 81, 79, 80, 80}, false, "better"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if got, _ := verdict(base, tc.b, tc.higherBetter, 0.1); got != tc.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %s, want %s", tc.b, tc.higherBetter, got, tc.want)
		}
	}
}

// TestBlockP90IgnoresOneSlowBlock: a burst that slows every op of one block
// moves a plain p90 but not the block median.
func TestBlockP90IgnoresOneSlowBlock(t *testing.T) {
	xs := make([]float64, 125)
	for i := range xs {
		xs[i] = float64(i % 25) // each block holds 0..24
	}
	for i := 50; i < 75; i++ {
		xs[i] += 100
	}
	if got, want := blockP90(xs), percentile(xs[:25], 90); got != want {
		t.Errorf("blockP90 = %v, want %v", got, want)
	}
	if got := blockP90(xs[:40]); got != percentile(xs[:40], 90) {
		t.Errorf("under 50 ops blockP90 = %v, want the plain p90 %v", got, percentile(xs[:40], 90))
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", start: 0, end: 10 * ms, parent: -1},
		{name: "a", start: 1 * ms, end: 4 * ms, parent: 0},
		{name: "b", start: 3 * ms, end: 6 * ms, parent: 0},
		{name: "c", start: 8 * ms, end: 12 * ms, parent: 0},
	}
	lt := aggregate(spans)
	if got := lt.self["op"]; got != 3*ms {
		t.Errorf("self(op) = %v, want 3ms", got)
	}
	if got := lt.self["b"]; got != 3*ms {
		t.Errorf("self(b) = %v, want 3ms", got)
	}
}
