package stream

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/cuszhi"
)

// raceEnabled is set by race_test.go when building with -race.
var raceEnabled bool

func rampField3(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i%23) + 0.5*float32(i%7)
	}
	return data
}

// TestAllocsStreamedRoundTrip bounds the steady-state allocations of a full
// streamed round trip (writer construction through reader EOF). Shard
// working sets come from pooled codec contexts and recycled slabs, so the
// remaining allocations are per-session plumbing (goroutines, pool
// channels, frames) — a ceiling of 400 for a 4-shard 64³ field catches any
// O(field-size) regression while leaving bookkeeping headroom.
func TestAllocsStreamedRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses pooling under -race; ceiling is calibrated for normal builds")
	}
	dims := []int{64, 64, 64}
	data := rampField3(64 * 64 * 64)
	var buf bytes.Buffer
	rbuf := make([]byte, 1<<16)
	run := func() {
		buf.Reset()
		w, err := NewWriter(&buf, dims, 0.01, WithMode(cuszhi.ModeCuszL), WithWorkers(1), WithChunkPlanes(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for {
			if _, err := r.Read(rbuf); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the context/slab pools
	run()
	if n := testing.AllocsPerRun(10, run); n > 400 {
		t.Fatalf("streamed 64³ round trip allocates %v/op, want <= 400", n)
	}
}

// TestRelativeEBStreamRoundTrip exercises the v3 container: a relative
// bound resolved per shard, no pre-pass over the field, reconstruction
// within relEB × the global value range (shard ranges never exceed it).
func TestRelativeEBStreamRoundTrip(t *testing.T) {
	dims := []int{24, 10, 10}
	n := 24 * 10 * 10
	data := make([]float32, n)
	for i := range data {
		// Plane-dependent magnitude so shard ranges genuinely differ.
		plane := i / 100
		data[i] = float32(plane*plane)/4 + float32(i%13)*0.25
	}
	relEB := 0.01
	var buf bytes.Buffer
	// WithIndex(false) pins the plain v3 layout; the default (v4) adds the
	// seekable chunk-index footer and is covered by the ReaderAt tests.
	w, err := NewWriter(&buf, dims, relEB, WithMode(cuszhi.ModeCuszL), WithChunkPlanes(8), WithRelativeEB(), WithIndex(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 3 || !info.RelativeEB || info.AbsErrorEB != relEB || info.NumChunks != 3 {
		t.Fatalf("v3 header info = %+v", info)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.RelativeEB() || r.EB() != relEB {
		t.Fatalf("reader bound = %v (relative=%v)", r.EB(), r.RelativeEB())
	}
	recon, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != n {
		t.Fatalf("got %d values, want %d", len(recon), n)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	bound := relEB * (hi - lo)
	for i := range data {
		if d := math.Abs(float64(data[i]) - float64(recon[i])); d > bound {
			t.Fatalf("global relative bound violated at %d: |%v - %v| = %v > %v",
				i, data[i], recon[i], d, bound)
		}
	}

	// The one-shot decoder handles v3 transparently too.
	recon2, gotDims, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recon2) != n || gotDims[0] != dims[0] {
		t.Fatalf("one-shot v3 decode: %d values, dims %v", len(recon2), gotDims)
	}
}

// TestRelativeEBConstantShard: a constant shard has zero range, and the
// field's global range is unknown to the shard, so the writer must encode
// it bit-exactly — any range-derived fallback could exceed the global
// relative bound on a low-range field (found by review).
func TestRelativeEBConstantShard(t *testing.T) {
	dims := []int{8, 4, 4}
	data := make([]float32, 8*4*4)
	for i := range data {
		if i >= 64 { // planes 4..7 vary; planes 0..3 are constant zero
			data[i] = float32(i % 9)
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, 0.05, WithMode(cuszhi.ModeCuszL), WithChunkPlanes(4), WithRelativeEB())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if recon[i] != 0 {
			t.Fatalf("constant-zero shard not reconstructed exactly: %v at %d", recon[i], i)
		}
	}
}

// TestRelativeEBConstantShardLowRangeField is the review counterexample: a
// constant shard inside a field whose global range is far below 1. The
// promised bound is relEB × global range; a rng→1 fallback would exceed
// it ~100×, a bit-exact constant shard satisfies it trivially.
func TestRelativeEBConstantShardLowRangeField(t *testing.T) {
	dims := []int{2, 8, 8}
	data := make([]float32, 2*8*8)
	for i := range data {
		data[i] = 5.05
	}
	for i := 64; i < 128; i++ { // second shard spans [5.05, 5.06]
		data[i] = 5.05 + float32(i-64)*0.01/63
	}
	relEB := 0.01
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, relEB, WithMode(cuszhi.ModeCuszL), WithChunkPlanes(1), WithRelativeEB())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, float64(v))
		hi = math.Max(hi, float64(v))
	}
	bound := relEB * (hi - lo) * (1 + 1e-6)
	for i := range data {
		if d := math.Abs(float64(data[i]) - float64(recon[i])); d > bound {
			t.Fatalf("global relative bound violated at %d: err %v > %v", i, d, bound)
		}
	}
}

// TestRelativeEBNaNValues: shards whose leading values (or all values) are
// NaN must not abort relative-bound streaming — the replaced whole-file
// pre-pass skipped NaNs when computing the range, and the per-shard scan
// must too. The bound contract (core's TestBoundContract) asks more of
// every codec: a nil-error write decodes every finite value within the
// bound, every NaN as NaN and every ±Inf as the same infinity.
func TestRelativeEBNaNValues(t *testing.T) {
	dims := []int{4, 4, 4}
	data := make([]float32, 4*4*4)
	nan := float32(math.NaN())
	for i := range data {
		data[i] = float32(i % 11)
	}
	data[0] = nan  // shard 0 leads with NaN
	data[20] = nan // mid-shard NaN
	for i := 32; i < 48; i++ {
		data[i] = nan // shard 2 (planes 2..3 at ChunkPlanes 1: plane 2) all NaN
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, 0.01, WithMode(cuszhi.ModeCuszL), WithChunkPlanes(1), WithRelativeEB())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != len(data) {
		t.Fatalf("got %d values", len(recon))
	}
}

// TestAllocsReadPlanesWindow bounds a warm 8-plane window read of a
// 32-plane hi-cr shard. The frame buffer and every decode buffer come
// from the pooled codec context, so what remains per window is a few
// hundred bytes of index, frame-header and worker plumbing: no
// allocation grows with the frame or the shard. The byte bound takes the
// cheapest of several reads, since sync.Pool may hand one read a fresh
// context.
func TestAllocsReadPlanesWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses pooling under -race; ceiling is calibrated for normal builds")
	}
	dims := []int{64, 48, 48}
	data := spikyField(dims, 26)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, 1e-3, WithMode(cuszhi.ModeCR), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ra, err := OpenReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var dst []float32
	read := func() {
		if dst, err = ra.ReadPlanes(dst, 40, 48); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the context pool
	read()
	if n := testing.AllocsPerRun(10, read); n > 14 {
		t.Fatalf("warm 8-plane window allocates %v/op, want <= 14", n)
	}
	minBytes := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		minBytes = min(minBytes, after.TotalAlloc-before.TotalAlloc)
	}
	if minBytes > 4096 {
		t.Fatalf("warm 8-plane window allocates %d bytes, want <= 4096", minBytes)
	}
}
