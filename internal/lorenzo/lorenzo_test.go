package lorenzo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var dev = gpusim.New(4)

func roundTrip(t *testing.T, data []float32, dims []int, eb float64) *Result {
	t.Helper()
	g := NewGrid(dims)
	res, err := CompressCtx(nil, dev, data, g, eb)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	recon, err := DecompressCtx(nil, dev, res, g, eb)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
		t.Fatalf("bound violated at %d: %v vs %v (eb=%v)", i, data[i], recon[i], eb)
	}
	return res
}

func smoothField(dims []int, seed int64) []float32 {
	g := NewGrid(dims)
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, g.Len())
	i := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				out[i] = float32(math.Sin(float64(x)*0.2)*math.Cos(float64(y)*0.15) +
					0.3*math.Sin(float64(z)*0.1) + 0.01*rng.NormFloat64())
				i++
			}
		}
	}
	return out
}

func TestRoundTrip3D(t *testing.T) {
	dims := []int{30, 40, 50}
	data := smoothField(dims, 1)
	for _, eb := range []float64{1e-1, 1e-2, 1e-4} {
		roundTrip(t, data, dims, eb)
	}
}

func TestRoundTrip2D1D(t *testing.T) {
	data2 := smoothField([]int{64, 80}, 2)
	roundTrip(t, data2, []int{64, 80}, 1e-3)
	data1 := smoothField([]int{5000}, 3)
	roundTrip(t, data1, []int{5000}, 1e-3)
}

func TestRoundTripTiny(t *testing.T) {
	for _, dims := range [][]int{{1}, {2, 2}, {1, 1, 1}, {3, 1, 2}} {
		roundTrip(t, smoothField(dims, 4), dims, 1e-3)
	}
}

func TestRoundTripRandomNoise(t *testing.T) {
	// Rough data exercises the escape path heavily.
	dims := []int{20, 20, 20}
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, 8000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 100)
	}
	res := roundTrip(t, data, dims, 1e-4)
	if len(res.Escapes) == 0 {
		t.Fatal("expected escapes on rough data")
	}
}

func TestRoundTripExtremeMagnitudes(t *testing.T) {
	dims := []int{10, 10, 10}
	rng := rand.New(rand.NewSource(6))
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * 1e30
	}
	res := roundTrip(t, data, dims, 1e-3)
	if res.ValOutliers.Len() == 0 {
		t.Fatal("expected value outliers at extreme magnitudes")
	}
}

func TestCodesConcentratedOnSmoothData(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{32, 48, 48}, 7)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	g := NewGrid(f.Dims)
	res, err := CompressCtx(nil, dev, f.Data, g, eb)
	if err != nil {
		t.Fatal(err)
	}
	center := uint16(Radius + 1)
	near := 0
	for _, c := range res.Codes {
		if c >= center-2 && c <= center+2 {
			near++
		}
	}
	if frac := float64(near) / float64(len(res.Codes)); frac < 0.5 {
		t.Fatalf("only %.1f%% codes near center", frac*100)
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	dims := []int{17, 23, 29}
	data := smoothField(dims, 8)
	g := NewGrid(dims)
	a, err := CompressCtx(nil, dev, data, g, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressCtx(nil, gpusim.New(1), data, g, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatalf("codes differ at %d", i)
		}
	}
	if len(a.Escapes) != len(b.Escapes) {
		t.Fatal("escape counts differ")
	}
}

func TestDecompressErrors(t *testing.T) {
	g := NewGrid([]int{4, 4, 4})
	data := smoothField([]int{4, 4, 4}, 9)
	res, err := CompressCtx(nil, dev, data, g, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong grid.
	if _, err := DecompressCtx(nil, dev, res, NewGrid([]int{5, 5, 5}), 1e-3); err == nil {
		t.Fatal("want grid mismatch error")
	}
	// Truncated escapes with forced escape code.
	bad := &Result{Codes: append([]uint16(nil), res.Codes...), Escapes: nil, ValOutliers: res.ValOutliers}
	bad.Codes[10] = 0
	if _, err := DecompressCtx(nil, dev, bad, g, 1e-3); err == nil {
		t.Fatal("want escape exhaustion error")
	}
	// Out-of-range code.
	bad2 := &Result{Codes: append([]uint16(nil), res.Codes...), Escapes: res.Escapes, ValOutliers: res.ValOutliers}
	bad2.Codes[0] = Alphabet + 5
	if _, err := DecompressCtx(nil, dev, bad2, g, 1e-3); err == nil {
		t.Fatal("want code range error")
	}
}

func TestCompressErrors(t *testing.T) {
	g := NewGrid([]int{4, 4, 4})
	if _, err := CompressCtx(nil, dev, make([]float32, 10), g, 1e-3); err == nil {
		t.Fatal("want size mismatch")
	}
	if _, err := CompressCtx(nil, dev, make([]float32, 64), g, -1); err == nil {
		t.Fatal("want eb error")
	}
}

func TestPrequantizeClamps(t *testing.T) {
	data := []float32{3.4e38, -3.4e38, 0, 1}
	qv := PrequantizeCtx(nil, dev, data, 1e-30)
	if qv[0] != latticeCap || qv[1] != -latticeCap {
		t.Fatalf("clamping failed: %v", qv[:2])
	}
	// 1/1e-30 = 1e30 also exceeds the cap.
	if qv[2] != 0 || qv[3] != latticeCap {
		t.Fatalf("values wrong: %v", qv[2:])
	}
	qv2 := PrequantizeCtx(nil, dev, []float32{1, -0.25}, 0.5)
	if qv2[0] != 2 || qv2[1] != -1 {
		t.Fatalf("normal lattice wrong: %v", qv2)
	}
}
