package interp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var dev = gpusim.New(4)

func synthField(dims []int, seed int64) []float32 {
	g := NewGrid(dims)
	out := make([]float32, g.Len())
	rng := rand.New(rand.NewSource(seed))
	// Smooth trigonometric base + mild noise.
	i := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				v := math.Sin(float64(x)*0.1) * math.Cos(float64(y)*0.07) * math.Cos(float64(z)*0.05)
				out[i] = float32(v + 0.02*rng.NormFloat64())
				i++
			}
		}
	}
	return out
}

func roundTrip(t *testing.T, data []float32, dims []int, cfg Config, eb float64) *Result {
	t.Helper()
	g := NewGrid(dims)
	res, err := CompressCtx(nil, dev, data, g, cfg, eb)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	recon, err := DecompressCtx(nil, dev, res, g, cfg, eb)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
		t.Fatalf("error bound violated at index %d: %v vs %v (eb=%v)",
			i, data[i], recon[i], eb)
	}
	return res
}

func TestRoundTripHi3D(t *testing.T) {
	dims := []int{48, 48, 48}
	data := synthField(dims, 1)
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		roundTrip(t, data, dims, HiConfig(), eb)
	}
}

func TestRoundTripCuszI3D(t *testing.T) {
	dims := []int{40, 40, 72}
	data := synthField(dims, 2)
	roundTrip(t, data, dims, CuszIConfig(), 1e-3)
}

func TestRoundTripNonAlignedDims(t *testing.T) {
	// Dims that are not multiples of the block size or anchor stride.
	for _, dims := range [][]int{
		{17, 17, 17}, {18, 33, 50}, {5, 7, 11}, {100, 3, 2}, {1, 300, 7},
	} {
		data := synthField(dims, 3)
		roundTrip(t, data, dims, HiConfig(), 1e-3)
	}
}

func TestRoundTrip2D(t *testing.T) {
	dims := []int{200, 150}
	data := synthField(dims, 4)
	roundTrip(t, data, dims, HiConfig(), 1e-3)
	roundTrip(t, data, dims, CuszIConfig(), 1e-3)
}

func TestRoundTrip1D(t *testing.T) {
	dims := []int{5000}
	data := synthField(dims, 5)
	roundTrip(t, data, dims, HiConfig(), 1e-3)
}

func TestRoundTripTinyInputs(t *testing.T) {
	for _, dims := range [][]int{{1}, {2}, {3, 3}, {1, 1, 1}, {2, 2, 2}} {
		data := synthField(dims, 6)
		roundTrip(t, data, dims, HiConfig(), 1e-3)
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	dims := []int{33, 34, 35}
	data := synthField(dims, 7)
	for _, sch := range []Scheme{Seq1DXYZ, Seq1DZYX, MD} {
		for _, sp := range []Spline{Linear, Cubic} {
			cfg := HiConfig()
			cfg.PerLevel = uniformLevels(cfg.Levels(), LevelConfig{Scheme: sch, Spline: sp})
			roundTrip(t, data, dims, cfg, 1e-3)
		}
	}
}

func TestRoundTripExtremeValues(t *testing.T) {
	dims := []int{20, 20, 20}
	g := NewGrid(dims)
	data := make([]float32, g.Len())
	rng := rand.New(rand.NewSource(8))
	for i := range data {
		data[i] = float32(rng.NormFloat64()) * 1e20 // huge magnitudes -> outliers
	}
	res := roundTrip(t, data, dims, HiConfig(), 1e-3)
	if res.Outliers.Len() == 0 {
		t.Fatal("expected outliers for wild data")
	}
}

func TestRoundTripConstantField(t *testing.T) {
	dims := []int{32, 32, 32}
	g := NewGrid(dims)
	data := make([]float32, g.Len())
	for i := range data {
		data[i] = 7.25
	}
	res := roundTrip(t, data, dims, HiConfig(), 1e-3)
	// Constant data predicts perfectly: all codes must be the zero code.
	for i, c := range res.Codes {
		if c != 128 {
			t.Fatalf("code[%d] = %d on constant field", i, c)
		}
	}
	if res.Outliers.Len() != 0 {
		t.Fatal("constant field should have no outliers")
	}
}

func TestCodesConcentratedOnSmoothField(t *testing.T) {
	// On a smooth field most codes should equal the zero code — that is
	// the compressibility premise of the paper.
	f, err := datagen.Generate("miranda", []int{48, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	g := NewGrid(f.Dims)
	res, err := CompressCtx(nil, dev, f.Data, g, HiConfig(), eb)
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, c := range res.Codes {
		if c >= 126 && c <= 130 {
			near++
		}
	}
	if frac := float64(near) / float64(len(res.Codes)); frac < 0.5 {
		t.Fatalf("only %.1f%% of codes are near zero on smooth data", frac*100)
	}
}

func TestHiPredictsBetterThanNoInterpolation(t *testing.T) {
	// The quantization codes must be overwhelmingly near 128 vs the raw
	// value spread: checks the predictor actually predicts.
	f, err := datagen.Generate("jhtdb", []int{32, 32, 32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	g := NewGrid(f.Dims)
	res, err := CompressCtx(nil, dev, f.Data, g, HiConfig(), eb)
	if err != nil {
		t.Fatal(err)
	}
	var within1 int
	for _, c := range res.Codes {
		if c >= 127 && c <= 129 {
			within1++
		}
	}
	if frac := float64(within1) / float64(len(res.Codes)); frac < 0.3 {
		t.Fatalf("codes not concentrated: %.1f%% within ±1", frac*100)
	}
}

func TestDeterministicCompression(t *testing.T) {
	dims := []int{33, 40, 41}
	data := synthField(dims, 9)
	g := NewGrid(dims)
	a, err := CompressCtx(nil, dev, data, g, HiConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressCtx(nil, gpusim.New(1), data, g, HiConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatalf("codes differ at %d between parallel and serial runs", i)
		}
	}
	if a.Outliers.Len() != b.Outliers.Len() {
		t.Fatal("outlier counts differ")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{AnchorStride: 3, BlockZ: 16, BlockY: 16, BlockX: 16},
		{AnchorStride: 16, BlockZ: 15, BlockY: 16, BlockX: 16},
		{AnchorStride: 16, BlockZ: 16, BlockY: 16, BlockX: 16}, // no PerLevel
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
	good := HiConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.Levels(); got != 4 {
		t.Fatalf("Hi levels = %d", got)
	}
	if got := CuszIConfig().Levels(); got != 3 {
		t.Fatalf("cuSZ-I levels = %d", got)
	}
}

func TestCompressErrors(t *testing.T) {
	g := NewGrid([]int{4, 4, 4})
	data := make([]float32, 64)
	if _, err := CompressCtx(nil, dev, data[:10], g, HiConfig(), 1e-3); err == nil {
		t.Fatal("want size mismatch error")
	}
	if _, err := CompressCtx(nil, dev, data, g, HiConfig(), 0); err == nil {
		t.Fatal("want eb error")
	}
	cfg := HiConfig()
	cfg.AnchorStride = 5
	if _, err := CompressCtx(nil, dev, data, g, cfg, 1e-3); err == nil {
		t.Fatal("want config error")
	}
}

func TestInterp1Orders(t *testing.T) {
	// Full cubic stencil on a cubic polynomial should be (near) exact at
	// the midpoint.
	f := func(x float64) float64 { return 2*x*x*x - x*x + 3*x - 1 }
	a, p, q, d := float32(f(-3)), float32(f(-1)), float32(f(1)), float32(f(3))
	pred, order := interp1(a, p, q, d, true, true, true, true, Cubic)
	if order != 3 {
		t.Fatalf("order = %d", order)
	}
	if math.Abs(float64(pred)-f(0)) > 1e-4 {
		t.Fatalf("cubic midpoint = %v, want %v", pred, f(0))
	}
	// Linear spline ignores the outer points.
	pred, order = interp1(a, p, q, d, true, true, true, true, Linear)
	if order != 1 || pred != (p+q)/2 {
		t.Fatalf("linear = %v (order %d)", pred, order)
	}
	// One-sided extrapolation.
	pred, order = interp1(a, p, 0, 0, true, true, false, false, Cubic)
	if order != 0 || pred != (3*p-a)/2 {
		t.Fatalf("extrapolation = %v (order %d)", pred, order)
	}
	// Copy fallback.
	pred, order = interp1(0, p, 0, 0, false, true, false, false, Cubic)
	if order != 0 || pred != p {
		t.Fatalf("copy = %v (order %d)", pred, order)
	}
}

func TestAutoTunePrefersCubicOnSmoothData(t *testing.T) {
	dims := []int{64, 64, 64}
	g := NewGrid(dims)
	data := make([]float32, g.Len())
	i := 0
	for z := 0; z < 64; z++ {
		for y := 0; y < 64; y++ {
			for x := 0; x < 64; x++ {
				data[i] = float32(math.Sin(float64(x)*0.15) + math.Cos(float64(y)*0.12) + math.Sin(float64(z)*0.1))
				i++
			}
		}
	}
	choices := AutoTune(dev, data, g, HiConfig(), 0.3)
	if len(choices) != 4 {
		t.Fatalf("choices = %v", choices)
	}
	// The finest level of a smooth field strongly favours cubic splines.
	if choices[len(choices)-1].Spline != Cubic {
		t.Fatalf("finest level chose %v; want cubic on smooth data", choices[len(choices)-1])
	}
}

func TestAutoTuneImprovesOrMatches(t *testing.T) {
	f, err := datagen.Generate("cesm", []int{128, 256}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(f.Dims)
	eb := metrics.AbsEB(f.Data, 1e-3)
	cfg := HiConfig()
	resDefault, err := CompressCtx(nil, dev, f.Data, g, cfg, eb)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PerLevel = AutoTune(dev, f.Data, g, cfg, 0.2)
	resTuned, err := CompressCtx(nil, dev, f.Data, g, cfg, eb)
	if err != nil {
		t.Fatal(err)
	}
	absSum := func(codes []uint8) (s int64) {
		for _, c := range codes {
			d := int64(c) - 128
			if d < 0 {
				d = -d
			}
			s += d
		}
		return
	}
	// Tuned configs must not be substantially worse than the default.
	if absSum(resTuned.Codes) > absSum(resDefault.Codes)*11/10 {
		t.Fatalf("tuned error %d much worse than default %d", absSum(resTuned.Codes), absSum(resDefault.Codes))
	}
}

func TestGridHelpers(t *testing.T) {
	g := NewGrid([]int{4, 5, 6, 7}) // 4-D collapses
	if g.Nz != 20 || g.Ny != 6 || g.Nx != 7 {
		t.Fatalf("grid = %+v", g)
	}
	g2 := NewGrid([]int{33, 33, 33})
	az, ay, ax := g2.AnchorDims(16)
	if az != 3 || ay != 3 || ax != 3 {
		t.Fatalf("anchor dims = %d %d %d", az, ay, ax)
	}
	if g2.AnchorCount(16) != 27 {
		t.Fatal("anchor count")
	}
}

func TestBlockGridCounts(t *testing.T) {
	cfg := HiConfig()
	for _, tc := range []struct {
		dims       []int
		wz, wy, wx int
	}{
		{[]int{17, 17, 17}, 1, 1, 1},
		{[]int{18, 17, 33}, 2, 1, 2},
		{[]int{1, 16, 100}, 1, 1, 7},
		{[]int{2, 2, 2}, 1, 1, 1},
	} {
		g := NewGrid(tc.dims)
		nz, ny, nx := blockGrid(g, &cfg)
		if nz != tc.wz || ny != tc.wy || nx != tc.wx {
			t.Fatalf("dims %v: blocks %d %d %d, want %d %d %d", tc.dims, nz, ny, nx, tc.wz, tc.wy, tc.wx)
		}
	}
}

func TestErrorBoundPropertyRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		dims := []int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)}
		g := NewGrid(dims)
		data := make([]float32, g.Len())
		for i := range data {
			data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3)))
		}
		eb := math.Pow(10, -float64(1+rng.Intn(4)))
		cfg := HiConfig()
		if trial%2 == 1 {
			cfg = CuszIConfig()
		}
		res, err := CompressCtx(nil, dev, data, g, cfg, eb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		recon, err := DecompressCtx(nil, dev, res, g, cfg, eb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
			t.Fatalf("trial %d dims %v eb %v: violation at %d: %v vs %v",
				trial, dims, eb, i, data[i], recon[i])
		}
	}
}
