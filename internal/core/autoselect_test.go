package core

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

func TestAutoSelectPicksAWinner(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{48, 64, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	sel, err := AutoSelect(nil, dev, f.Data, f.Dims, eb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.SampleCR) != 6 { // three assemblies + fzgpu/szp/szx backends
		t.Fatalf("sample CRs: %v", sel.SampleCR)
	}
	// The winner's sample CR must be the max.
	winner := sel.SampleCR[sel.Options.Name]
	for name, cr := range sel.SampleCR {
		if cr > winner {
			t.Fatalf("%s (%.1f) beats winner %s (%.1f)", name, cr, sel.Options.Name, winner)
		}
	}
	// On smooth data at a large bound, Hi-CR should win.
	if sel.Options.Name != "cuSZ-Hi-CR" {
		t.Fatalf("expected cuSZ-Hi-CR on smooth data, got %s (%v)", sel.Options.Name, sel.SampleCR)
	}
	// The winning registered codec travels with the selection.
	if sel.Codec == nil || sel.Codec.ID() != CodecHiCR {
		t.Fatalf("selection codec = %v", sel.Codec)
	}
}

// TestAutoSelectCtxReusesScratch is the arena-threading guard: repeated
// selections through one warm context must stop allocating estimator
// working sets. The ceiling (300) sits above the warm-context cost (the
// auto-tune error matrices, the Huffman length builder, Options
// construction) and below what re-making the predictor/probe scratch per
// selection costs, so regressing to fresh scratch per candidate trips it.
func TestAutoSelectCtxReusesScratch(t *testing.T) {
	dims := []int{32, 24, 24}
	data := rampField(32 * 24 * 24)
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ctx := arena.NewCtx()
	cd, _, err := SelectShardCodecPolicy(ctx, dev1, data, dims, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		got, _, err := SelectShardCodecPolicy(ctx, dev1, data, dims, 0.02, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != cd.ID() {
			t.Fatalf("selection flapped: %s vs %s", got.Name(), cd.Name())
		}
	})
	if n > 300 {
		t.Fatalf("steady-state SelectShardCodecPolicy allocates %v/op, want <= 300", n)
	}

	// Selection through a ctx agrees with the context-free path.
	want, err := AutoSelect(nil, dev1, data, dims, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AutoSelect(ctx, dev1, data, dims, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Options.Name != want.Options.Name || len(got.SampleCR) != len(want.SampleCR) {
		t.Fatalf("ctx selection %s diverges from context-free %s", got.Options.Name, want.Options.Name)
	}
	for name, cr := range want.SampleCR {
		if got.SampleCR[name] != cr {
			t.Fatalf("%s: sample CR %v != %v", name, got.SampleCR[name], cr)
		}
	}
}

func TestAutoSelectThenCompressHonoursBound(t *testing.T) {
	f, err := datagen.Generate("cesm", []int{128, 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-3)
	sel, err := AutoSelect(nil, dev, f.Data, f.Dims, eb, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := CompressCtx(nil, dev, f.Data, f.Dims, eb, sel.Options)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.WithinBound(f.Data, recon, eb) {
		t.Fatal("auto-selected assembly violated the bound")
	}
}

func TestAutoSelectSmallInput(t *testing.T) {
	// Inputs smaller than the sample slab fall back to whole-data sampling.
	data := make([]float32, 4*4*4)
	for i := range data {
		data[i] = float32(i)
	}
	sel, err := AutoSelect(nil, dev, data, []int{4, 4, 4}, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Options.Name == "" {
		t.Fatal("no selection")
	}
	if _, err := AutoSelect(nil, dev, nil, nil, 1e-3, nil); err == nil {
		t.Fatal("want error on empty data")
	}
}

func TestSampleSlab(t *testing.T) {
	data := make([]float32, 100*8*8)
	slab, dims := sampleSlab(data, []int{100, 8, 8}, 0.1)
	if dims[0] != 17 || dims[1] != 8 || dims[2] != 8 {
		t.Fatalf("slab dims = %v", dims)
	}
	if len(slab) != 17*8*8 {
		t.Fatalf("slab len = %d", len(slab))
	}
	// Tiny input: whole data.
	slab, dims = sampleSlab(data[:64], []int{1, 8, 8}, 0.1)
	if len(slab) != 64 || dims[0] != 1 {
		t.Fatalf("tiny slab = %d %v", len(slab), dims)
	}
}

// TestSampleSlabPreservesRank: the slab must keep the field's original
// rank, so candidates are scored on the same-shaped field they will
// compress — a rank-4 field must not collapse to 3-D slab dims.
func TestSampleSlabPreservesRank(t *testing.T) {
	dims4 := []int{40, 3, 4, 5}
	data := make([]float32, 40*3*4*5)
	for i := range data {
		data[i] = float32(i % 31)
	}
	slab, sdims := sampleSlab(data, dims4, 0.1)
	if len(sdims) != 4 {
		t.Fatalf("rank collapsed: slab dims = %v", sdims)
	}
	if sdims[0] != 17 || sdims[1] != 3 || sdims[2] != 4 || sdims[3] != 5 {
		t.Fatalf("slab dims = %v", sdims)
	}
	if len(slab) != 17*3*4*5 {
		t.Fatalf("slab len = %d", len(slab))
	}
	// 2-D fields keep their rank too.
	slab2, sdims2 := sampleSlab(make([]float32, 200*16), []int{200, 16}, 0.1)
	if len(sdims2) != 2 || sdims2[0] != 20 || sdims2[1] != 16 || len(slab2) != 20*16 {
		t.Fatalf("2-D slab = %d %v", len(slab2), sdims2)
	}
	// And AutoSelect itself works end to end on a rank-4 field.
	if _, err := AutoSelect(nil, dev, data, dims4, 0.05, nil); err != nil {
		t.Fatalf("AutoSelect on rank-4 field: %v", err)
	}
}
