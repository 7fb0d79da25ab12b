package interp

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/quant"
)

// raceEnabled is set by race_test.go when building with -race.
var raceEnabled bool

// TestAllocsWarmCtx guards the arena batch slots of the interpolation
// compressor: a warm context must run the predictor — including the
// per-block outlier collectors (persistent arena.Slots) and the fused
// stride-row kernels — with a near-constant handful of allocations
// (Result header, outlier merge, pooled block buffers), independent of
// field size. Under -race the loops still run but the ceilings are not
// enforced, since the race detector makes sync.Pool drop items.
func TestAllocsWarmCtx(t *testing.T) {
	dims := []int{48, 40, 40}
	data := synthField(dims, 21)
	g := NewGrid(dims)
	cfg := HiConfig()
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ctx := arena.NewCtx()
	res, err := CompressCtx(ctx, dev1, data, g, cfg, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressCtx(ctx, dev1, res, g, cfg, 1e-3); err != nil {
		t.Fatal(err)
	}
	comp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := CompressCtx(ctx, dev1, data, g, cfg, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compress: %v allocs/op", comp)
	if comp > 8 && !raceEnabled {
		t.Fatalf("steady-state compress allocates %v/op, want <= 8", comp)
	}
	// The Result is context scratch; copy it out so the decompress loop can
	// Reset the context without clobbering its own input.
	ctx.Reset()
	res, err = CompressCtx(ctx, dev1, data, g, cfg, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	owned := &Result{
		Codes:   append([]uint8(nil), res.Codes...),
		Anchors: append([]float32(nil), res.Anchors...),
		Freq:    append([]int64(nil), res.Freq...),
		Outliers: &quant.Outliers{
			Pos: append([]int(nil), res.Outliers.Pos...),
			Val: append([]float32(nil), res.Outliers.Val...),
		},
	}
	decomp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := DecompressCtx(ctx, dev1, owned, g, cfg, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm decompress: %v allocs/op", decomp)
	if decomp > 2 && !raceEnabled {
		t.Fatalf("steady-state decompress allocates %v/op, want <= 2", decomp)
	}
}
