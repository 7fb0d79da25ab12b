package szx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var dev = gpusim.New(4)

func roundTrip(t *testing.T, data []float32, eb float64) []byte {
	t.Helper()
	blob, err := CompressCtx(nil, dev, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != len(data) {
		t.Fatalf("len %d != %d", len(recon), len(data))
	}
	if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
		t.Fatalf("bound violated at %d: %v vs %v", i, data[i], recon[i])
	}
	return blob
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, nil, 1e-3)
	roundTrip(t, []float32{1}, 1e-3)
	roundTrip(t, []float32{-1, 0, 1, 2}, 1e-3)
	roundTrip(t, make([]float32, 1000), 1e-3)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 50_000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 100)
	}
	for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
		roundTrip(t, data, eb)
	}
}

func TestConstantBlocksCollapse(t *testing.T) {
	data := make([]float32, 100_000)
	for i := range data {
		data[i] = 42.5
	}
	blob := roundTrip(t, data, 1e-3)
	// One float + header per 128-value block.
	if len(blob) > len(data)/10 {
		t.Fatalf("constant data compressed to %d bytes", len(blob))
	}
}

func TestSmoothDataModestRatio(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{32, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	blob := roundTrip(t, f.Data, eb)
	cr := metrics.CR(f.SizeBytes(), len(blob))
	// The archetype's signature: fast but limited ratio (paper §2.2).
	if cr < 1.5 {
		t.Fatalf("szx CR = %.2f, want >= 1.5", cr)
	}
	if cr > 100 {
		t.Fatalf("szx CR = %.2f implausibly high", cr)
	}
}

func TestNonFinitePreserved(t *testing.T) {
	data := make([]float32, 300)
	for i := range data {
		data[i] = float32(i)
	}
	data[7] = float32(math.NaN())
	data[200] = float32(math.Inf(-1))
	blob, err := CompressCtx(nil, dev, data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(recon[7])) || !math.IsInf(float64(recon[200]), -1) {
		t.Fatal("non-finite values not preserved")
	}
}

func TestMantissaBitsFor(t *testing.T) {
	// eb equal to the value magnitude needs ~no mantissa bits.
	if k := mantissaBitsFor(1.0, 2.0); k != 0 {
		t.Fatalf("huge eb: keep = %d", k)
	}
	// Tight bounds need all bits.
	if k := mantissaBitsFor(1.0, 1e-12); k != 23 {
		t.Fatalf("tiny eb: keep = %d", k)
	}
	// Truncation error must actually respect the bound.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3)))
		eb := math.Pow(10, -float64(1+rng.Intn(5)))
		keep := mantissaBitsFor(float32(math.Abs(float64(v))), eb)
		bits := math.Float32bits(v)
		trunc := bits &^ ((1 << (23 - uint(keep))) - 1)
		if keep == 23 {
			trunc = bits
		}
		got := math.Float32frombits(trunc)
		if math.Abs(float64(v)-float64(got)) > eb {
			t.Fatalf("trial %d: v=%v keep=%d err=%v > eb=%v", trial, v, keep, math.Abs(float64(v)-float64(got)), eb)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := make([]float32, 5000)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	blob, err := CompressCtx(nil, dev, data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 5, len(blob) / 2, len(blob) - 1} {
		if _, err := DecompressCtx(nil, dev, blob[:cut]); err == nil {
			t.Fatalf("truncation to %d: want error", cut)
		}
	}
	for trial := 0; trial < 30; trial++ {
		bad := append([]byte(nil), blob...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		DecompressCtx(nil, dev, bad) // must not panic
	}
}

func TestCompressErrors(t *testing.T) {
	if _, err := CompressCtx(nil, dev, []float32{1}, 0); err == nil {
		t.Fatal("want eb error")
	}
}

// TestCtxMatchesContextFree: the arena-context entry points must produce
// byte-identical containers to the context-free wrappers (the chunked
// encode scratch must not change the wire format).
func TestCtxMatchesContextFree(t *testing.T) {
	data := make([]float32, 40_000)
	for i := range data {
		data[i] = float32(math.Cos(float64(i)*0.004)) * 100
	}
	// Mix in constant runs so both block kinds are exercised.
	for i := 5000; i < 10000; i++ {
		data[i] = 42.5
	}
	want, err := CompressCtx(nil, dev, data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := arena.NewCtx()
	got, err := CompressCtx(ctx, dev, data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("context compression diverges from context-free compression")
	}
	ctx.Reset()
	recon, err := DecompressCtx(ctx, dev, got)
	if err != nil {
		t.Fatal(err)
	}
	if i := metrics.FirstViolation(data, recon, 1e-3); i >= 0 {
		t.Fatalf("bound violated at %d", i)
	}
}

// TestAllocsWarmCtx is the arena-refactor guard: warm contexts must run
// the round trip with a near-constant handful of allocations (output
// container, kernel closure), independent of the stream length.
func TestAllocsWarmCtx(t *testing.T) {
	data := make([]float32, 60_000)
	for i := range data {
		data[i] = float32(i%31) * 0.25
	}
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ctx := arena.NewCtx()
	blob, err := CompressCtx(ctx, dev1, data, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := DecompressCtx(ctx, dev1, blob); err != nil {
		t.Fatal(err)
	}
	comp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := CompressCtx(ctx, dev1, data, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compress: %v allocs/op", comp)
	if comp > 6 {
		t.Fatalf("steady-state compress allocates %v/op, want <= 6", comp)
	}
	decomp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := DecompressCtx(ctx, dev1, blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm decompress: %v allocs/op", decomp)
	if decomp > 4 {
		t.Fatalf("steady-state decompress allocates %v/op, want <= 4", decomp)
	}
}
