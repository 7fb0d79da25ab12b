package szp

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
	roundTrip(t, []float32{1, 2, 3, 4, 5}, 1e-3)
	roundTrip(t, make([]float32, 1000), 1e-3)
}

func TestRoundTripSmooth(t *testing.T) {
	data := make([]float32, 100_000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.001))
	}
	for _, eb := range []float64{1e-2, 1e-3, 1e-5} {
		blob := roundTrip(t, data, eb)
		if eb == 1e-2 && len(blob) > len(data) {
			t.Fatalf("smooth data did not compress: %d bytes", len(blob))
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 10_000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 50)
	}
	roundTrip(t, data, 1e-3)
}

func TestRoundTripExtreme(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 5000)
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * 1e32
	}
	roundTrip(t, data, 1e-3)
}

func TestZeroBlocksSparsified(t *testing.T) {
	// Constant field: every delta block after the first is all-zero.
	data := make([]float32, 1_000_000)
	blob := roundTrip(t, data, 1e-3)
	// Floor: 1 bitmap bit per 32 floats = ratio 1024.
	if len(blob) > 4*len(data)/500 {
		t.Fatalf("constant field compressed to %d bytes", len(blob))
	}
}

func TestDataset(t *testing.T) {
	f, err := datagen.Generate("nyx", []int{32, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	blob := roundTrip(t, f.Data, eb)
	cr := metrics.CR(f.SizeBytes(), len(blob))
	if cr < 2 {
		t.Fatalf("nyx CR = %.2f, want > 2", cr)
	}
}

func TestCompressErrors(t *testing.T) {
	if _, err := CompressCtx(nil, dev, []float32{1}, 0); err == nil {
		t.Fatal("want eb error")
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
	for _, cut := range []int{0, 1, 4, len(blob) / 2, len(blob) - 1} {
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

// TestCtxMatchesContextFree: the arena-context entry points must produce
// byte-identical containers to the context-free wrappers.
func TestCtxMatchesContextFree(t *testing.T) {
	data := make([]float32, 40_000)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.002))
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
		data[i] = float32(i%23) * 0.5
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

// TestNaNRoundTrip: a NaN input is stored as an outlier and decodes as
// NaN, and every finite value around it keeps the bound. A NaN used to
// take the lattice value int64(NaN), whose delta overflowed the 6-bit
// block width, so the container could not be read back.
func TestNaNRoundTrip(t *testing.T) {
	const eb = 1e-3
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	nan := float32(math.NaN())
	for _, i := range []int{0, 31, 32, 1001, 2047, 3000, 3001, 4095} {
		data[i] = nan
	}
	blob, err := CompressCtx(nil, dev, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		r := float64(recon[i])
		if v != v {
			if !math.IsNaN(r) {
				t.Fatalf("NaN at %d decoded as %v", i, r)
			}
		} else if !(math.Abs(float64(v)-r) <= eb) {
			t.Fatalf("bound violated at %d: %v vs %v", i, v, r)
		}
	}
}
