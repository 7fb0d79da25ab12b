package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/lccodec"
	"repro/internal/lorenzo"
	"repro/internal/metrics"
	"repro/internal/szx"
)

// setBatchedKernels flips every package-level batched-kernel toggle at
// once, selecting either the wide fast paths or their scalar references.
// The interpolation kernels have no toggle: internal/interp's equivalence
// tests pin them to its per-point reference walk.
func setBatchedKernels(v bool) {
	lorenzo.Batched = v
	lccodec.Batched = v
	szx.Batched = v
}

// f32BitsEqual compares float32 slices bitwise, so NaN-bearing fields
// (datagen produces some for degenerate shapes) still compare meaningfully.
func f32BitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchedContainersMatchScalar is the end-to-end equivalence
// property: with all batched kernels disabled, every assembly mode and
// backend codec must still emit byte-identical containers and decode to
// byte-identical fields, across datagen fields and dim shapes that hit
// the scalar tails (non-multiple-of-8 extents, rank-1/2 grids). This is
// what licenses "batched by default": the wide paths are a pure
// performance substitution, invisible on the wire.
func TestBatchedContainersMatchScalar(t *testing.T) {
	defer setBatchedKernels(true)
	dev := gpusim.New(4)
	dimsList := [][]int{
		{24, 16, 16},
		{33, 17, 9},
		{41, 77},
		{999},
	}
	modes := []string{"cusz-l", "hi-cr", "hi-tp"}
	backends := []string{"fzgpu", "szp", "szx"}
	for _, name := range datagen.Names() {
		for _, dims := range dimsList {
			f, err := datagen.Generate(name, dims, 17)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			eb := metrics.AbsEB(f.Data, 1e-2)
			if !(eb > 0) || math.IsInf(eb, 0) {
				// datagen emits all-NaN fields for some degenerate shapes;
				// core.Compress rejects the NaN bound. The package-level
				// equivalence tests cover NaN data.
				continue
			}
			for _, mode := range modes {
				opts, err := ModeOptions(mode)
				if err != nil {
					t.Fatal(err)
				}
				setBatchedKernels(false)
				want, err := Compress(dev, f.Data, f.Dims, eb, opts)
				if err != nil {
					t.Fatalf("%s %v %s scalar: %v", name, dims, mode, err)
				}
				setBatchedKernels(true)
				got, err := Compress(dev, f.Data, f.Dims, eb, opts)
				if err != nil {
					t.Fatalf("%s %v %s batched: %v", name, dims, mode, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v %s: containers diverge", name, dims, mode)
				}
				gotRecon, _, err := Decompress(dev, got)
				if err != nil {
					t.Fatalf("%s %v %s batched decode: %v", name, dims, mode, err)
				}
				setBatchedKernels(false)
				wantRecon, _, err := Decompress(dev, want)
				if err != nil {
					t.Fatalf("%s %v %s scalar decode: %v", name, dims, mode, err)
				}
				if !f32BitsEqual(gotRecon, wantRecon) {
					t.Fatalf("%s %v %s: reconstructions diverge", name, dims, mode)
				}
				setBatchedKernels(true)
			}
			for _, bk := range backends {
				cd, ok := CodecByName(bk)
				if !ok {
					t.Fatalf("backend %q not registered", bk)
				}
				setBatchedKernels(false)
				want, err := CompressChunked(dev, f.Data, f.Dims, 8, EncodeSpec{Version: 5, EB: eb, Codec: cd})
				if err != nil {
					t.Fatalf("%s %v %s scalar: %v", name, dims, bk, err)
				}
				setBatchedKernels(true)
				got, err := CompressChunked(dev, f.Data, f.Dims, 8, EncodeSpec{Version: 5, EB: eb, Codec: cd})
				if err != nil {
					t.Fatalf("%s %v %s batched: %v", name, dims, bk, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v %s: containers diverge", name, dims, bk)
				}
				gotRecon, _, err := Decompress(dev, got)
				if err != nil {
					t.Fatalf("%s %v %s batched decode: %v", name, dims, bk, err)
				}
				setBatchedKernels(false)
				wantRecon, _, err := Decompress(dev, want)
				if err != nil {
					t.Fatalf("%s %v %s scalar decode: %v", name, dims, bk, err)
				}
				if !f32BitsEqual(gotRecon, wantRecon) {
					t.Fatalf("%s %v %s: reconstructions diverge", name, dims, bk)
				}
				setBatchedKernels(true)
			}
		}
	}
}
