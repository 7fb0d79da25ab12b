package cuszhi

import (
	"math"
	"testing"

	"repro/internal/datagen"
)

func TestF64RoundTripWithinBound(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{32, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, f.Len())
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range f.Data {
		// Perturb beyond float32 precision to make the input genuinely
		// double-precision.
		data[i] = float64(v) + 1e-12*float64(i%7)
		if data[i] < lo {
			lo = data[i]
		}
		if data[i] > hi {
			hi = data[i]
		}
	}
	relEB := 1e-3
	absEB := relEB * (hi - lo)
	c, err := New(ModeCR, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.CompressF64(data, f.Dims, relEB)
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := c.DecompressF64(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || len(recon) != len(data) {
		t.Fatalf("shape: dims %v len %d", dims, len(recon))
	}
	for i := range data {
		if math.Abs(data[i]-recon[i]) > absEB*(1+1e-9) {
			t.Fatalf("bound violated at %d: %v vs %v (eb %v)", i, data[i], recon[i], absEB)
		}
	}
}

func TestF64BoundBelowPrecisionRejected(t *testing.T) {
	data := []float64{1e30, 2e30, 3e30, 4e30, 1e30, 2e30, 3e30, 4e30}
	c, _ := New(ModeCR)
	// eb far below the f32 ULP at 1e30 must be rejected, not silently
	// violated.
	if _, err := c.CompressF64Abs(data, []int{2, 2, 2}, 1.0); err == nil {
		t.Fatal("want precision error")
	}
}

// TestF64OutOfFloat32RangeRejected: a finite double the float32 core
// cannot hold must be refused, not decoded as ±Inf under a nil error.
func TestF64OutOfFloat32RangeRejected(t *testing.T) {
	c, _ := New(ModeCR)
	for _, big := range []float64{1e39, -1e39, math.MaxFloat64} {
		data := []float64{big, 1, 2, 3}
		blob, err := c.CompressF64Abs(data, []int{4}, 1e37)
		if err == nil {
			recon, _, _ := c.DecompressF64(blob)
			t.Fatalf("%g at eb 1e37: nil error, decoded as %v", big, recon)
		}
	}
}

func TestF64Validation(t *testing.T) {
	c, _ := New(ModeCR)
	if _, err := c.CompressF64(nil, nil, 1e-3); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := c.CompressF64([]float64{1}, []int{1}, 0); err == nil {
		t.Fatal("want eb error")
	}
	if _, err := c.CompressF64Abs([]float64{1}, []int{1}, -1); err == nil {
		t.Fatal("want abs eb error")
	}
}

func TestF64ConstantField(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 3.14159
	}
	c, _ := New(ModeTP)
	blob, err := c.CompressF64(data, []int{10, 10, 10}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := c.DecompressF64(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recon {
		if math.Abs(recon[i]-3.14159) > 1e-4 {
			t.Fatalf("constant field drifted: %v", recon[i])
		}
	}
}
