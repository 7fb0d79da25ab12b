package lorenzo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/quant"
)

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

// prequantRangeScalar is the per-point reference for prequantRange.
func (k *kern) prequantRangeScalar(lo, hi int) {
	for i := lo; i < hi; i++ {
		q := math.Round(float64(k.data[i]) / k.twoEB)
		switch {
		case q > float64(latticeCap):
			k.qv[i] = latticeCap
		case q < -float64(latticeCap):
			k.qv[i] = -latticeCap
		case math.IsNaN(q):
			k.qv[i] = 0
		default:
			k.qv[i] = int64(q)
		}
	}
}

// deltaRangeScalar is the per-point reference implementation of the
// quantization sweep over the flat range [lo, hi): it recomputes
// coordinates and probes every neighbor through the boundary-checked at()
// accessor, exactly the shape the batched row kernel replaces.
func (k *kern) deltaRangeScalar(lo, hi int, ec *escChunk, hist *[Alphabet]uint32) {
	g := k.g
	qv := k.qv
	nyx := g.Ny * g.Nx
	for i := lo; i < hi; i++ {
		x := i % g.Nx
		y := (i / g.Nx) % g.Ny
		z := i / nyx
		at := func(dz, dy, dx int) int64 {
			if z-dz < 0 || y-dy < 0 || x-dx < 0 {
				return 0
			}
			return qv[i-dz*nyx-dy*g.Nx-dx]
		}
		pred := at(0, 0, 1) + at(0, 1, 0) + at(1, 0, 0) -
			at(0, 1, 1) - at(1, 0, 1) - at(1, 1, 0) + at(1, 1, 1)
		delta := qv[i] - pred
		if delta >= -Radius && delta < Radius {
			code := uint16(delta+Radius) + 1
			k.codes[i] = code
			hist[code]++
		} else {
			k.codes[i] = 0
			hist[0]++
			ec.deltas = append(ec.deltas, delta)
		}
		recon := float32(float64(qv[i]) * k.twoEB)
		if !(math.Abs(float64(k.data[i])-float64(recon)) <= k.eb) {
			ec.valPos = append(ec.valPos, i)
			ec.valVals = append(ec.valVals, k.data[i])
		}
	}
}

// compressRef is the serial per-point oracle of CompressCtx: one scalar
// prequantization pass and one scalar sweep over the whole field, so its
// escapes and value outliers come out in flat order by construction.
func compressRef(data []float32, g Grid, eb float64) *Result {
	n := len(data)
	k := &kern{data: data, qv: make([]int64, n), codes: make([]uint16, n), g: g, eb: eb, twoEB: 2 * eb}
	k.prequantRangeScalar(0, n)
	var ec escChunk
	var hist [Alphabet]uint32
	k.deltaRangeScalar(0, n, &ec, &hist)
	res := &Result{Codes: k.codes, Escapes: ec.deltas, Freq: make([]int64, Alphabet)}
	res.ValOutliers.Pos, res.ValOutliers.Val = ec.valPos, ec.valVals
	for sym, c := range hist {
		res.Freq[sym] = int64(c)
	}
	return res
}

// decompressRef is the per-point oracle of DecompressCtx: each lattice
// value is its delta plus the Lorenzo prediction from the already rebuilt
// neighbors (the inverse of the compress sweep), with no prefix-sum scans.
// It returns the same verdict as DecompressCtx on a bad code, an
// exhausted or unused escape list and an out-of-range outlier position.
func decompressRef(res *Result, g Grid, eb float64) ([]float32, error) {
	n := g.Len()
	if len(res.Codes) != n {
		return nil, fmt.Errorf("lorenzo: %d codes for grid of %d points", len(res.Codes), n)
	}
	twoEB := 2 * eb
	qv := make([]int64, n)
	nyx := g.Ny * g.Nx
	esc := 0
	for i, c := range res.Codes {
		var delta int64
		switch {
		case c == 0:
			if esc >= len(res.Escapes) {
				return nil, fmt.Errorf("lorenzo: escape list exhausted at %d", i)
			}
			delta = res.Escapes[esc]
			esc++
		case int(c) >= Alphabet:
			return nil, fmt.Errorf("lorenzo: code %d out of range", c)
		default:
			delta = int64(c) - 1 - Radius
		}
		x := i % g.Nx
		y := (i / g.Nx) % g.Ny
		z := i / nyx
		at := func(dz, dy, dx int) int64 {
			if z-dz < 0 || y-dy < 0 || x-dx < 0 {
				return 0
			}
			return qv[i-dz*nyx-dy*g.Nx-dx]
		}
		qv[i] = delta + at(0, 0, 1) + at(0, 1, 0) + at(1, 0, 0) -
			at(0, 1, 1) - at(1, 0, 1) - at(1, 1, 0) + at(1, 1, 1)
	}
	if esc != len(res.Escapes) {
		return nil, fmt.Errorf("lorenzo: %d unused escapes", len(res.Escapes)-esc)
	}
	out := make([]float32, n)
	for i, q := range qv {
		out[i] = float32(float64(q) * twoEB)
	}
	for k, p := range res.ValOutliers.Pos {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("lorenzo: outlier position %d out of range", p)
		}
		out[p] = res.ValOutliers.Val[k]
	}
	return out, nil
}

// checkMatchesOracle compresses data with the wide kernels and with the
// oracle, and requires byte-identical codes, escapes, value outliers,
// histogram and reconstructions — including the wide decoder run on the
// oracle's result.
func checkMatchesOracle(t *testing.T, dev *gpusim.Device, label string, data []float32, g Grid, eb float64) {
	t.Helper()
	want := compressRef(data, g, eb)
	wantRecon, err := decompressRef(want, g, eb)
	if err != nil {
		t.Fatalf("%s oracle decompress: %v", label, err)
	}
	got, err := CompressCtx(nil, dev, data, g, eb)
	if err != nil {
		t.Fatalf("%s batched: %v", label, err)
	}
	if !slices.Equal(got.Codes, want.Codes) {
		t.Fatalf("%s: codes diverge", label)
	}
	if !slices.Equal(got.Escapes, want.Escapes) {
		t.Fatalf("%s: escapes diverge", label)
	}
	if !slices.Equal(got.ValOutliers.Pos, want.ValOutliers.Pos) ||
		!f32BitsEqual(got.ValOutliers.Val, want.ValOutliers.Val) {
		t.Fatalf("%s: value outliers diverge", label)
	}
	if !slices.Equal(got.Freq, want.Freq) {
		t.Fatalf("%s: histogram diverges", label)
	}
	gotRecon, err := DecompressCtx(nil, dev, got, g, eb)
	if err != nil {
		t.Fatalf("%s batched decompress: %v", label, err)
	}
	if !f32BitsEqual(gotRecon, wantRecon) {
		t.Fatalf("%s: reconstruction diverges", label)
	}
	// Cross-check: batched decode of the oracle result too.
	cross, err := DecompressCtx(nil, dev, want, g, eb)
	if err != nil || !f32BitsEqual(cross, wantRecon) {
		t.Fatalf("%s: cross decode diverges (%v)", label, err)
	}
}

// TestBatchedMatchesScalar is the equivalence property for the wide
// kernels: over every datagen field and a dim set that exercises
// non-multiple-of-8 extents, rank-1/2 grids and width-1 rows, the batched
// path must produce byte-identical quant codes, escapes, value outliers,
// histogram and reconstruction to the per-point oracle.
func TestBatchedMatchesScalar(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(4)
	dimsList := [][]int{
		{16, 16, 16},
		{33, 17, 9}, // no extent a multiple of 8
		{7, 5, 3},   // rows shorter than one lane group
		{6, 9, 1},   // width-1 rows: halo column only
		{37, 53},    // rank 2
		{1009},      // rank 1, prime length
	}
	for _, name := range datagen.Names() {
		for _, dims := range dimsList {
			f, err := datagen.Generate(name, dims, 11)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			eb := metrics.AbsEB(f.Data, 1e-2)
			checkMatchesOracle(t, dev, fmt.Sprintf("%s %v", name, dims), f.Data, NewGrid(dims), eb)
		}
	}
}

// TestBatchedMatchesScalarShardDims repeats the equivalence on the shard
// shapes of the container-level suites, at two bounds.
func TestBatchedMatchesScalarShardDims(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(4)
	for _, name := range datagen.Names() {
		for _, dims := range [][]int{{24, 16, 16}, {33, 17, 9}, {41, 77}, {999}} {
			f, err := datagen.Generate(name, dims, 17)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			for _, rel := range []float64{1e-2, 1e-4} {
				eb := metrics.AbsEB(f.Data, rel)
				checkMatchesOracle(t, dev, fmt.Sprintf("%s %v %g", name, dims, rel), f.Data, NewGrid(dims), eb)
			}
		}
	}
}

// TestBatchedMatchesScalarSpecials runs the same equivalence over inputs
// the datagen fields never hold: NaN and ±Inf sprinkles, denormals,
// magnitudes past the lattice cap, and bounds below the data's ulp and
// above its range.
func TestBatchedMatchesScalarSpecials(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(3)
	g := NewGrid([]int{9, 13, 21})
	rng := rand.New(rand.NewSource(5))
	base := make([]float32, g.Len())
	for i := range base {
		base[i] = float32(math.Sin(float64(i)*0.01) * 100)
	}
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-42, -3e38, 3e38}
	sprinkled := slices.Clone(base)
	for i := 0; i < 200; i++ {
		sprinkled[rng.Intn(len(sprinkled))] = special[rng.Intn(len(special))]
	}
	allNaN := make([]float32, g.Len())
	for i := range allNaN {
		allNaN[i] = float32(math.NaN())
	}
	denorm := make([]float32, g.Len())
	for i := range denorm {
		denorm[i] = float32(rng.Float64() * 1e-40)
	}
	for _, tc := range []struct {
		name string
		data []float32
		eb   float64
	}{
		{"sprinkled", sprinkled, 1e-2},
		{"all-nan", allNaN, 1e-2},
		{"denormal", denorm, 1e-43},
		{"sub-ulp", base, 1e-9},
		{"above-range", base, 1e6},
	} {
		checkMatchesOracle(t, dev, tc.name, tc.data, g, tc.eb)
	}
}

// TestDecodeVerdictMatchesOracle mutates valid results — a code out of
// range, a code turned into an escape, a dropped or extra escape, a bad
// outlier position — and requires the wide decoder and the oracle to
// agree on every verdict and, when both accept, on every bit.
func TestDecodeVerdictMatchesOracle(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(2)
	g := NewGrid([]int{11, 17, 19})
	f, err := datagen.Generate("jhtdb", []int{11, 17, 19}, 3)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-3)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 72; trial++ {
		res := compressRef(f.Data, g, eb)
		res.Codes = slices.Clone(res.Codes)
		res.Escapes = slices.Clone(res.Escapes)
		res.ValOutliers = quant.Outliers{Pos: slices.Clone(res.ValOutliers.Pos), Val: slices.Clone(res.ValOutliers.Val)}
		i := rng.Intn(len(res.Codes))
		switch trial % 6 {
		case 0:
			res.Codes[i] = uint16(Alphabet + rng.Intn(100))
		case 1:
			res.Codes[i] = 0
		case 2:
			if len(res.Escapes) > 0 {
				res.Escapes = res.Escapes[1:]
			}
		case 3:
			res.Escapes = append(res.Escapes, 7)
		case 4:
			res.ValOutliers.Append(len(res.Codes)+rng.Intn(3), 1)
		case 5:
			// An out-of-range code in a lane group whose other codes are
			// all 1: the OR of the group's code-1 values is Alphabet-1, the
			// one value the group validity test must still reject.
			g0 := i &^ 7
			for l := g0; l < g0+8 && l < len(res.Codes); l++ {
				res.Codes[l] = 1
			}
			res.Codes[g0] = Alphabet
		}
		want, wantErr := decompressRef(res, g, eb)
		got, gotErr := DecompressCtx(nil, dev, res, g, eb)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: verdicts diverge: wide %v, oracle %v", trial, gotErr, wantErr)
		}
		if gotErr == nil && !f32BitsEqual(got, want) {
			t.Fatalf("trial %d: reconstruction diverges", trial)
		}
	}
}
