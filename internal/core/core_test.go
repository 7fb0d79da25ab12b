package core

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var dev = gpusim.New(4)

func allModes() []Options {
	return []Options{HiCR(), HiTP(), CuszI(), CuszIB(), CuszL()}
}

func roundTrip(t *testing.T, data []float32, dims []int, eb float64, opts Options) []byte {
	t.Helper()
	blob, err := CompressCtx(nil, dev, data, dims, eb, opts)
	if err != nil {
		t.Fatalf("%s: Compress: %v", opts.Name, err)
	}
	recon, gotDims, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatalf("%s: Decompress: %v", opts.Name, err)
	}
	if len(gotDims) != len(dims) {
		t.Fatalf("%s: dims %v != %v", opts.Name, gotDims, dims)
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("%s: dims %v != %v", opts.Name, gotDims, dims)
		}
	}
	if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
		t.Fatalf("%s: bound violated at %d: %v vs %v (eb=%v)", opts.Name, i, data[i], recon[i], eb)
	}
	return blob
}

func TestRoundTripAllModesAllDatasets(t *testing.T) {
	for _, name := range []string{"miranda", "nyx", "cesm"} {
		f, err := datagen.Generate(name, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Shrink for test speed.
		dims := make([]int, len(f.Dims))
		for i, d := range f.Dims {
			dims[i] = d / 2
		}
		small, err := datagen.Generate(name, dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		eb := metrics.AbsEB(small.Data, 1e-3)
		for _, opts := range allModes() {
			roundTrip(t, small.Data, small.Dims, eb, opts)
		}
	}
}

func TestHiCRBeatsBaselinesOnSmoothData(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{48, 64, 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	sizes := map[string]int{}
	for _, opts := range allModes() {
		blob := roundTrip(t, f.Data, f.Dims, eb, opts)
		sizes[opts.Name] = len(blob)
	}
	// The headline claim of the paper, in miniature: Hi-CR must beat the
	// open-source baselines (cuSZ-I, cuSZ-L).
	if sizes["cuSZ-Hi-CR"] >= sizes["cuSZ-I"] {
		t.Fatalf("Hi-CR (%d) should beat cuSZ-I (%d)", sizes["cuSZ-Hi-CR"], sizes["cuSZ-I"])
	}
	if sizes["cuSZ-Hi-CR"] >= sizes["cuSZ-L"] {
		t.Fatalf("Hi-CR (%d) should beat cuSZ-L (%d)", sizes["cuSZ-Hi-CR"], sizes["cuSZ-L"])
	}
}

func TestAblationVariantsRoundTrip(t *testing.T) {
	f, err := datagen.Generate("nyx", []int{48, 48, 48}, 3)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	variants := AblationVariants()
	if len(variants) != 5 {
		t.Fatalf("expected 5 ablation variants, got %d", len(variants))
	}
	prevSize := 1 << 62
	improved := 0
	for _, v := range variants {
		blob := roundTrip(t, f.Data, f.Dims, eb, v)
		if len(blob) < prevSize {
			improved++
		}
		prevSize = len(blob)
	}
	// The stack should be broadly monotone: most increments help.
	if improved < 3 {
		t.Fatalf("only %d/4 ablation increments improved size", improved)
	}
}

func TestRoundTrip2D(t *testing.T) {
	f, err := datagen.Generate("cesm", []int{128, 256}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-3)
	for _, opts := range allModes() {
		roundTrip(t, f.Data, f.Dims, eb, opts)
	}
}

func TestCompressValidation(t *testing.T) {
	data := make([]float32, 8)
	if _, err := CompressCtx(nil, dev, data, []int{2, 2, 2}, 0, HiCR()); err == nil {
		t.Fatal("want eb error")
	}
	if _, err := CompressCtx(nil, dev, data, []int{3, 3}, 1e-3, HiCR()); err == nil {
		t.Fatal("want dims error")
	}
	if _, err := CompressCtx(nil, dev, data, []int{2, -4}, 1e-3, HiCR()); err == nil {
		t.Fatal("want negative dim error")
	}
	bad := CuszL()
	bad.Pipeline = PipeHiCR // unsupported combination
	if _, err := CompressCtx(nil, dev, data, []int{2, 2, 2}, 1e-3, bad); err == nil {
		t.Fatal("want pipeline error for Lorenzo+HiCR")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{32, 32, 32}, 5)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-3)
	rng := rand.New(rand.NewSource(6))
	for _, opts := range []Options{HiCR(), CuszL()} {
		blob, err := CompressCtx(nil, dev, f.Data, f.Dims, eb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecompressCtx(nil, dev, nil); err == nil {
			t.Fatal("want error for empty blob")
		}
		for _, cut := range []int{0, 3, 5, 20, len(blob) / 2, len(blob) - 1} {
			if _, _, err := DecompressCtx(nil, dev, blob[:cut]); err == nil {
				t.Fatalf("%s truncated to %d: want error", opts.Name, cut)
			}
		}
		for trial := 0; trial < 40; trial++ {
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			DecompressCtx(nil, dev, bad) // must not panic
		}
	}
}

func TestPipelineStrings(t *testing.T) {
	if PipeHiCR.String() != "HF-RRE4-TCMS8-RZE1" || PipeHiTP.String() != "TCMS1-BIT1-RRE1" {
		t.Fatal("pipeline names")
	}
}

func TestReorderImprovesTPMode(t *testing.T) {
	// §5.1.4: reordering groups large codes together, which the
	// de-redundancy pipelines exploit.
	f, err := datagen.Generate("miranda", []int{48, 48, 48}, 7)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-3)
	with := HiTP()
	without := HiTP()
	without.Reorder = false
	a, err := CompressCtx(nil, dev, f.Data, f.Dims, eb, with)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressCtx(nil, dev, f.Data, f.Dims, eb, without)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) > len(b)*103/100 {
		t.Fatalf("reorder hurt: %d vs %d", len(a), len(b))
	}
}

func TestSZ3LikeGlobalInterp(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{48, 64, 64}, 11)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	sz3 := roundTrip(t, f.Data, f.Dims, eb, SZ3Like())
	hi := roundTrip(t, f.Data, f.Dims, eb, HiCR())
	// Global blocks remove boundary fallbacks, so the CPU-style config
	// should compress at least about as well as the blocked GPU config —
	// the SZ3-vs-GPU gap the paper's introduction describes.
	if len(sz3) > len(hi)*105/100 {
		t.Fatalf("global interp (%d) worse than blocked (%d)", len(sz3), len(hi))
	}
}
