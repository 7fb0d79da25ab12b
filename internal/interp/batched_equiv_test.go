package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// compressScalarRef is the per-point reference compressor: blocks run
// serially with Batched off, so every point is predicted by the scalar
// predict, and every point is quantized by the scalar quant.Quantize.
func compressScalarRef(data []float32, g Grid, cfg Config, eb float64) *Result {
	Batched = false
	defer func() { Batched = true }()
	twoEB := 2 * eb
	res := &Result{
		Codes:    make([]uint8, g.Len()),
		Anchors:  gatherAnchors(nil, gpusim.New(1), data, g, cfg.AnchorStride),
		Outliers: &quant.Outliers{},
		Freq:     make([]int64, 256),
	}
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, res.Anchors)
		bk.loadAnchors(func(z, y, x int, v float32) {
			if bk.owns(z, y, x) {
				res.Codes[g.flat(z, y, x)] = quant.ZeroCode
			}
		})
		bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
			for i := range preds {
				idx := g.flat(z, y, x0+i*xstep)
				code, recon, outlier := quant.Quantize(data[idx], preds[i], twoEB)
				preds[i] = recon
				if i < nOwn {
					res.Codes[idx] = code
					if outlier {
						res.Outliers.Append(idx, data[idx])
					}
				}
			}
		})
	}
	sort.Sort(byPos{res.Outliers})
	for _, c := range res.Codes {
		res.Freq[c]++
	}
	return res
}

// decompressScalarRef is compressScalarRef's inverse: scalar predict and
// quant.Dequantize per point.
func decompressScalarRef(res *Result, g Grid, cfg Config, eb float64) []float32 {
	out, _ := decompressScalarOracle(res, g, cfg, eb)
	return out
}

// decompressScalarOracle is decompressScalarRef with the whole decode's
// verdict: an error wrapping quant.ErrCorrupt when a point some block
// reconstructs carries an outlier code whose value res.Outliers lacks.
func decompressScalarOracle(res *Result, g Grid, cfg Config, eb float64) ([]float32, error) {
	Batched = false
	defer func() { Batched = true }()
	out := make([]float32, g.Len())
	missing := false
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, res.Anchors)
		bk.loadAnchors(func(z, y, x int, v float32) {
			if bk.owns(z, y, x) {
				out[g.flat(z, y, x)] = v
			}
		})
		bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
			for i := range preds {
				idx := g.flat(z, y, x0+i*xstep)
				if c := res.Codes[idx]; c == quant.OutlierCode {
					var ok bool
					preds[i], ok = res.Outliers.SortedGet(idx)
					missing = missing || !ok
				} else {
					preds[i] = quant.Dequantize(c, preds[i], 2*eb)
				}
				if i < nOwn {
					out[idx] = preds[i]
				}
			}
		})
	}
	if missing {
		return out, fmt.Errorf("scalar oracle: outlier code with no value: %w", quant.ErrCorrupt)
	}
	return out, nil
}

// equivConfigs are the predictor configs the equivalence property runs:
// both presets, an all-linear one, and a per-level mix of schemes and
// splines.
func equivConfigs() map[string]Config {
	lin := HiConfig()
	lin.PerLevel = uniformLevels(lin.Levels(), LevelConfig{Scheme: MD, Spline: Linear})
	mixed := HiConfig()
	mixed.PerLevel = []LevelConfig{
		{Scheme: MD, Spline: Linear},
		{Scheme: Seq1DZYX, Spline: Cubic},
		{Scheme: Seq1DXYZ, Spline: Linear},
		{Scheme: MD, Spline: Cubic},
	}
	return map[string]Config{"hi": HiConfig(), "cuszi": CuszIConfig(), "linear": lin, "mixed": mixed}
}

// TestBatchedMatchesScalar is the equivalence property for the stride-row
// kernels: over every datagen field, every config of equivConfigs, a dim
// set with non-multiple-of-8 extents and rank-1/2 grids, and the
// end-to-end benchmark's 32×256×256 shard shape, the row prediction
// kernel and the row quantizer must produce byte-identical quant codes,
// anchors, outliers, histograms and reconstructions to the per-point
// reference, and AutoTune must pick the same per-level configs.
func TestBatchedMatchesScalar(t *testing.T) {
	dev := gpusim.New(4)
	dimsList := [][]int{
		{20, 20, 20},
		{33, 17, 9}, // no extent a multiple of 8
		{7, 5, 3},
		{37, 53}, // rank 2
		{1009},   // rank 1, prime length
		{32, 256, 256},
	}
	cfgs := equivConfigs()
	for _, name := range datagen.Names() {
		for _, dims := range dimsList {
			if dims[len(dims)-1] == 256 && name != "miranda" && name != "jhtdb" {
				continue // the shard shape is slow; two fields cover it
			}
			f, err := datagen.Generate(name, dims, 13)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			eb := metrics.AbsEB(f.Data, 1e-2)
			g := NewGrid(dims)
			for cn, cfg := range cfgs {
				want := compressScalarRef(f.Data, g, cfg, eb)
				wantRecon := decompressScalarRef(want, g, cfg, eb)

				got, err := Compress(dev, f.Data, g, cfg, eb)
				if err != nil {
					t.Fatalf("%s %v %s: %v", name, dims, cn, err)
				}
				if !slices.Equal(got.Codes, want.Codes) {
					t.Fatalf("%s %v %s: codes diverge", name, dims, cn)
				}
				if !f32BitsEqual(got.Anchors, want.Anchors) {
					t.Fatalf("%s %v %s: anchors diverge", name, dims, cn)
				}
				if !slices.Equal(got.Outliers.Pos, want.Outliers.Pos) ||
					!f32BitsEqual(got.Outliers.Val, want.Outliers.Val) {
					t.Fatalf("%s %v %s: outliers diverge", name, dims, cn)
				}
				if !slices.Equal(got.Freq, want.Freq) {
					t.Fatalf("%s %v %s: histogram diverges", name, dims, cn)
				}
				gotRecon, err := Decompress(dev, got, g, cfg, eb)
				if err != nil {
					t.Fatalf("%s %v %s decompress: %v", name, dims, cn, err)
				}
				if !f32BitsEqual(gotRecon, wantRecon) {
					t.Fatalf("%s %v %s: reconstruction diverges", name, dims, cn)
				}
			}
			for _, cn := range []string{"hi", "cuszi"} {
				Batched = false
				wantPicks := AutoTune(dev, f.Data, g, cfgs[cn], 0.2)
				Batched = true
				if gotPicks := AutoTune(dev, f.Data, g, cfgs[cn], 0.2); !slices.Equal(gotPicks, wantPicks) {
					t.Fatalf("%s %v %s: AutoTune picks %v, scalar path picks %v", name, dims, cn, gotPicks, wantPicks)
				}
			}
		}
	}
}

// rowPredictions runs every block through the row API with its buffer
// holding the field itself, as AutoTune does, and returns the bits of
// every prediction in visit order.
func rowPredictions(data []float32, g Grid, cfg Config) []uint32 {
	var bits []uint32
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, nil)
		bk.fillFromData(data)
		bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
			for i, p := range preds {
				bits = append(bits, math.Float32bits(p))
				preds[i] = data[g.flat(z, y, x0+i*xstep)]
			}
		})
	}
	return bits
}

// TestRowPredictionsMatchPredict compares the predictions themselves, not
// just what quantization makes of them: on a field of signed zeros and
// small integers, where the sign of a zero sum shows, every row-kernel
// prediction must have predict's exact bits.
func TestRowPredictionsMatchPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2}
	for _, dims := range [][]int{{33, 17, 9}, {20, 20, 20}, {37, 53}} {
		g := NewGrid(dims)
		data := make([]float32, g.Len())
		for i := range data {
			data[i] = vals[rng.Intn(len(vals))]
		}
		for cn, cfg := range equivConfigs() {
			Batched = false
			want := rowPredictions(data, g, cfg)
			Batched = true
			if got := rowPredictions(data, g, cfg); !slices.Equal(got, want) {
				t.Fatalf("%v %s: row predictions differ from predict", dims, cn)
			}
		}
	}
}

// TestStencilForMatchesInterp1 checks that the row kernel's formula table
// evaluates exactly what interp1 does for every availability pattern.
func TestStencilForMatchesInterp1(t *testing.T) {
	a, p, q, d := float32(-1.25), float32(3.5), float32(0.375), float32(7.75)
	// A one-point buffer segment laid out at offsets -3, -1, +1, +3.
	bk := &block{buf: []float32{a, 0, p, 0, q, 0, d}}
	for _, spline := range []Spline{Linear, Cubic} {
		for m := 0; m < 16; m++ {
			ha, hp, hq, hd := m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0
			want, wantOrder := interp1(a, p, q, d, ha, hp, hq, hd, spline)
			kind, order := stencilFor(ha, hp, hq, hd, spline)
			got := make([]float32, 1)
			bk.predictRow(got, 3, 1, negZero, []rowTerm{{off: 1, kind: kind}})
			if order != wantOrder || math.Float32bits(got[0]) != math.Float32bits(want) {
				t.Fatalf("%v flags %04b: stencil %d gives (%v, %d), interp1 (%v, %d)",
					spline, m, kind, got[0], order, want, wantOrder)
			}
		}
	}
}
