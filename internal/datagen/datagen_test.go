package datagen

import (
	"math"
	"testing"

	"repro/internal/fft"
	"repro/internal/metrics"
)

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("Names() = %v", names)
	}
	for _, n := range names {
		if _, err := Lookup(n); err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestPaperNames(t *testing.T) {
	want := []string{"cesm", "jhtdb", "miranda", "nyx", "qmcpack", "rtm"}
	got := PaperNames()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PaperNames = %v", got)
		}
	}
}

func TestGenerateAllSmall(t *testing.T) {
	for _, name := range Names() {
		f, err := Generate(name, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 1
		for _, d := range f.Dims {
			n *= d
		}
		if f.Len() != n {
			t.Fatalf("%s: len %d != dims product %d", name, f.Len(), n)
		}
		if f.SizeBytes() != 4*n {
			t.Fatalf("%s: SizeBytes", name)
		}
		// Finite values and non-degenerate range.
		for i, v := range f.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite value at %d", name, i)
			}
		}
		_, _, rng := metrics.Range(f.Data)
		if rng <= 0 {
			t.Fatalf("%s: zero value range", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("jhtdb", []int{16, 16, 16}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("jhtdb", []int{16, 16, 16}, 42)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
	c, _ := Generate("jhtdb", []int{16, 16, 16}, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fields")
	}
}

func TestGenerateCustomDims(t *testing.T) {
	f, err := Generate("miranda", []int{10, 20, 30}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dims[0] != 10 || f.Dims[1] != 20 || f.Dims[2] != 30 {
		t.Fatalf("dims = %v", f.Dims)
	}
	if f.Len() != 6000 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestGenerateInvalidDims(t *testing.T) {
	if _, err := Generate("nyx", []int{0, 4, 4}, 1); err == nil {
		t.Fatal("want error for zero dim")
	}
}

func TestDefaultDims(t *testing.T) {
	small, err := DefaultDims("nyx", false)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := DefaultDims("nyx", true)
	if full[0] != 512 || small[0] >= full[0] {
		t.Fatalf("small=%v full=%v", small, full)
	}
	// Returned slices must be copies.
	small[0] = -1
	small2, _ := DefaultDims("nyx", false)
	if small2[0] == -1 {
		t.Fatal("DefaultDims aliases internal state")
	}
}

func TestSmoothnessOrdering(t *testing.T) {
	// Miranda (hydro, steep spectrum) must be smoother than JHTDB
	// (turbulence) which governs the paper's CR ordering. Measure mean
	// absolute 1-step difference relative to the field's std dev.
	rough := func(name string) float64 {
		f, err := Generate(name, []int{48, 48, 48}, 3)
		if err != nil {
			t.Fatal(err)
		}
		var sum, m, m2 float64
		for _, v := range f.Data {
			m += float64(v)
		}
		m /= float64(f.Len())
		for _, v := range f.Data {
			d := float64(v) - m
			m2 += d * d
		}
		std := math.Sqrt(m2 / float64(f.Len()))
		for i := 1; i < f.Len(); i++ {
			sum += math.Abs(float64(f.Data[i]) - float64(f.Data[i-1]))
		}
		return sum / float64(f.Len()-1) / std
	}
	if rough("miranda") >= rough("jhtdb") {
		t.Fatal("miranda should be smoother than jhtdb")
	}
	if rough("nyx") >= rough("cesm") {
		t.Fatal("nyx (steep spectrum) should be smoother than cesm (noisy)")
	}
}

func TestDims3Collapse(t *testing.T) {
	nz, ny, nx := dims3([]int{4, 5, 6, 7})
	if nz != 20 || ny != 6 || nx != 7 {
		t.Fatalf("dims3 4D = %d %d %d", nz, ny, nx)
	}
	nz, ny, nx = dims3([]int{9})
	if nz != 1 || ny != 1 || nx != 9 {
		t.Fatalf("dims3 1D = %d %d %d", nz, ny, nx)
	}
}

func TestHashNoiseRange(t *testing.T) {
	for i := 0; i < 10000; i++ {
		v := hashNoise(1, i)
		if v < -1 || v >= 1 {
			t.Fatalf("hashNoise out of range: %v", v)
		}
	}
}

func TestResampleIdentity(t *testing.T) {
	base := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	out := resample3(base, 2, 2, 2, 2, 2, 2)
	for i := range base {
		if out[i] != base[i] {
			t.Fatal("identity resample changed data")
		}
	}
	// Must be a copy.
	out[0] = 99
	if base[0] == 99 {
		t.Fatal("resample aliases base")
	}
}

func TestResampleUpscaleSmooth(t *testing.T) {
	// Constant field stays constant under trilinear resampling.
	base := make([]float32, 4*4*4)
	for i := range base {
		base[i] = 3.5
	}
	out := resample3(base, 4, 4, 4, 7, 9, 11)
	for i, v := range out {
		if v != 3.5 {
			t.Fatalf("resampled constant drifted at %d: %v", i, v)
		}
	}
}

func TestSpectralSlope(t *testing.T) {
	// The JHTDB stand-in must show a falling power spectrum in the
	// inertial range: energy in low-k shells far above mid-k shells, and a
	// dissipation-like collapse near the Nyquist shell.
	f, err := Generate("jhtdb", []int{64, 64, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fft.NewGrid3(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.Data {
		g.Data[i] = complex(float64(v), 0)
	}
	if err := fft.Transform3(g, false); err != nil {
		t.Fatal(err)
	}
	shell := make([]float64, 33)
	count := make([]int, 33)
	for z := 0; z < 64; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				kz, ky, kx := z, y, x
				if kz > 32 {
					kz -= 64
				}
				if ky > 32 {
					ky -= 64
				}
				if kx > 32 {
					kx -= 64
				}
				k := int(math.Sqrt(float64(kz*kz+ky*ky+kx*kx)) + 0.5)
				if k > 32 {
					continue
				}
				c := g.Data[(z*64+y)*64+x]
				shell[k] += real(c)*real(c) + imag(c)*imag(c)
				count[k]++
			}
		}
	}
	norm := func(k int) float64 { return shell[k] / float64(count[k]) }
	if norm(2) < norm(10)*10 {
		t.Fatalf("spectrum not falling: P(2)=%g P(10)=%g", norm(2), norm(10))
	}
	if norm(10) < norm(28)*10 {
		t.Fatalf("no dissipation cutoff: P(10)=%g P(28)=%g", norm(10), norm(28))
	}
}

// TestGenerateFiniteAtEveryRank checks that every generator gives a
// finite field at rank 1, at rank 2, with one z-plane and in 3-D: a unit
// extent has no modes, so it must not set the spectral cutoff. The fields
// must not be constant either.
func TestGenerateFiniteAtEveryRank(t *testing.T) {
	for _, name := range Names() {
		for _, dims := range [][]int{{999}, {41, 77}, {1, 40, 40}, {9, 20, 24}} {
			f, err := Generate(name, dims, 17)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			for i, v := range f.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s %v: non-finite value %v at %d", name, dims, v, i)
				}
			}
			if _, _, rng := metrics.Range(f.Data); !(rng > 0) {
				t.Errorf("%s %v: value range %v", name, dims, rng)
			}
		}
	}
}
