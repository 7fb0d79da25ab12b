package fzgpu

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

func roundTrip(t *testing.T, data []float32, dims []int, eb float64) []byte {
	t.Helper()
	blob, err := CompressCtx(nil, dev, data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecompressCtx(nil, dev, blob)
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

func TestRoundTrip3D(t *testing.T) {
	dims := []int{24, 30, 36}
	data := make([]float32, 24*30*36)
	for i := range data {
		data[i] = float32(math.Cos(float64(i) * 0.0003))
	}
	for _, eb := range []float64{1e-2, 1e-4} {
		roundTrip(t, data, dims, eb)
	}
}

func TestRoundTrip2D(t *testing.T) {
	dims := []int{50, 60}
	data := make([]float32, 3000)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.1)
	}
	roundTrip(t, data, dims, 1e-3)
}

func TestCompressesSmoothData(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{32, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	blob := roundTrip(t, f.Data, f.Dims, eb)
	cr := metrics.CR(f.SizeBytes(), len(blob))
	if cr < 3 {
		t.Fatalf("miranda CR = %.2f, want > 3", cr)
	}
}

func TestExtremeValues(t *testing.T) {
	dims := []int{10, 10, 10}
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * 1e31
	}
	roundTrip(t, data, dims, 1e-2)
}

func TestDecompressCorrupt(t *testing.T) {
	dims := []int{16, 16, 16}
	data := make([]float32, 4096)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	blob, err := CompressCtx(nil, dev, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 8, len(blob) / 2, len(blob) - 1} {
		if _, _, err := DecompressCtx(nil, dev, blob[:cut]); err == nil {
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
// byte-identical containers to the context-free wrappers, and the ctx
// decoder must report the container's own dims.
func TestCtxMatchesContextFree(t *testing.T) {
	dims := []int{12, 16, 16}
	data := make([]float32, 12*16*16)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	want, err := CompressCtx(nil, dev, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := arena.NewCtx()
	got, err := CompressCtx(ctx, dev, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("context compression diverges from context-free compression")
	}
	ctx.Reset()
	recon, rdims, err := DecompressCtx(ctx, dev, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(rdims) != 3 || rdims[0] != 12 || rdims[1] != 16 || rdims[2] != 16 {
		t.Fatalf("ctx decode dims = %v", rdims)
	}
	if i := metrics.FirstViolation(data, recon, 1e-3); i >= 0 {
		t.Fatalf("bound violated at %d", i)
	}
}

// TestAllocsWarmCtx is the arena-refactor guard: a warm context must run
// the compress and decompress hot paths with a near-constant handful of
// allocations (the fresh output container, kernel closures, pool
// bookkeeping), independent of the field size.
func TestAllocsWarmCtx(t *testing.T) {
	dims := []int{16, 24, 24}
	data := make([]float32, 16*24*24)
	for i := range data {
		data[i] = float32(i%37)*0.25 + float32(i%11)
	}
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ctx := arena.NewCtx()
	blob, err := CompressCtx(ctx, dev1, data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, _, err := DecompressCtx(ctx, dev1, blob); err != nil {
		t.Fatal(err)
	}
	comp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := CompressCtx(ctx, dev1, data, dims, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compress: %v allocs/op", comp)
	if comp > 12 {
		t.Fatalf("steady-state compress allocates %v/op, want <= 12", comp)
	}
	decomp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, _, err := DecompressCtx(ctx, dev1, blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm decompress: %v allocs/op", decomp)
	if decomp > 8 {
		t.Fatalf("steady-state decompress allocates %v/op, want <= 8", decomp)
	}
}
