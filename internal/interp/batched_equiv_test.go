package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/arena"
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

// interp1 performs a 1-D midpoint interpolation from up to four neighbours
// at -3s, -s, +s, +3s (a, p, q, d) with availability flags, returning the
// prediction and its spline order (3 cubic, 2 quadratic, 1 linear,
// 0 extrapolation/copy).
func interp1(a, p, q, d float32, ha, hp, hq, hd bool, spline Spline) (float32, int) {
	switch {
	case hp && hq:
		if spline == Cubic {
			switch {
			case ha && hd:
				return (-a + 9*p + 9*q - d) / 16, 3
			case ha:
				return (-a + 6*p + 3*q) / 8, 2
			case hd:
				return (3*p + 6*q - d) / 8, 2
			}
		}
		return (p + q) / 2, 1
	case hp:
		if ha {
			return (3*p - a) / 2, 0
		}
		return p, 0
	case hq:
		if hd {
			return (3*q - d) / 2, 0
		}
		return q, 0
	}
	return 0, 0
}

// predict is the per-point reference prediction for the point at global
// coords (gz, gy, gx), local buffer index idx: interpolation along dims
// with stride s, averaging only the highest-order directional predictions
// (§5.1.2).
func (b *block) predict(gz, gy, gx, idx, s int, dims []int, spline Spline) float32 {
	gc := [3]int{gz, gy, gx}
	st := b.strides()
	// Interior fast path: when every interpolation direction has all four
	// cubic neighbours inside the block, each direction yields the order-3
	// prediction, so the general flag/order bookkeeping below collapses to
	// a branch-free average. 1.0/16 is a power of two, so the result is
	// bit-identical to the /16 general path.
	if spline == Cubic {
		var sum float32
		n := 0
		for _, d := range dims {
			c := gc[d]
			if c-3*s < b.lo[d] || c+3*s > b.hi[d] {
				n = -1
				break
			}
			step := s * st[d]
			sum += (-b.buf[idx-3*step] + 9*b.buf[idx-step] + 9*b.buf[idx+step] - b.buf[idx+3*step]) * (1.0 / 16)
			n++
		}
		if n > 0 {
			return sum / float32(n)
		}
	}
	bestOrder := -1
	var sum float32
	var cnt int
	for _, d := range dims {
		c := gc[d]
		step := s * st[d]
		var a, p, q, dd float32
		var ha, hp, hq, hd bool
		if c-s >= b.lo[d] {
			hp = true
			p = b.buf[idx-step]
		}
		if c-3*s >= b.lo[d] {
			ha = true
			a = b.buf[idx-3*step]
		}
		if c+s <= b.hi[d] {
			hq = true
			q = b.buf[idx+step]
		}
		if c+3*s <= b.hi[d] {
			hd = true
			dd = b.buf[idx+3*step]
		}
		pred, order := interp1(a, p, q, dd, ha, hp, hq, hd, spline)
		if order > bestOrder {
			bestOrder = order
			sum = pred
			cnt = 1
		} else if order == bestOrder {
			sum += pred
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float32(cnt)
}

// scalarVisit consumes one point of the reference walk: its global coords,
// its prediction and whether the block owns it. It returns the point's
// reconstruction, which the walk stores in the block buffer.
type scalarVisit func(z, y, x int, pred float32, own bool) float32

// walkLevelScalar is the reference walk of one level (stride s) over a
// block: every phase of phasesFor in order, every point of the phase's
// lattice in z, y, x order, predicted one point at a time by predict.
func walkLevelScalar(bk *block, s int, lc LevelConfig, visit scalarVisit) {
	for _, ph := range phasesFor(lc.Scheme) {
		var start, step [3]int
		for d := 0; d < 3; d++ {
			start[d], step[d] = bk.lo[d], 2*s
			switch ph.class[d] {
			case odd:
				start[d] += s
			case anyS:
				step[d] = s
			}
		}
		for z := start[0]; z <= bk.hi[0]; z += step[0] {
			for y := start[1]; y <= bk.hi[1]; y += step[1] {
				for x := start[2]; x <= bk.hi[2]; x += step[2] {
					idx := bk.local(z, y, x)
					pred := bk.predict(z, y, x, idx, s, ph.dims, lc.Spline)
					bk.buf[idx] = visit(z, y, x, pred, bk.owns(z, y, x))
				}
			}
		}
	}
}

// walkScalar runs walkLevelScalar over every level, coarse-to-fine.
func walkScalar(bk *block, visit scalarVisit) {
	li := 0
	for s := bk.cfg.AnchorStride / 2; s >= 1; s >>= 1 {
		walkLevelScalar(bk, s, bk.cfg.PerLevel[li], visit)
		li++
	}
}

// isAnchor reports whether a grid point lies on the anchor lattice.
func isAnchor(z, y, x, a int) bool { return z%a == 0 && y%a == 0 && x%a == 0 }

// compressScalarRef is the per-point reference compressor: blocks run
// serially through walkScalar, so every point is predicted by the scalar
// predict and quantized by the scalar quant.Quantize, and the owner of
// each point, by the owns rule, emits its code and outlier.
func compressScalarRef(data []float32, g Grid, cfg Config, eb float64) *Result {
	twoEB := 2 * eb
	res := &Result{
		Codes:    make([]uint8, g.Len()),
		Anchors:  gatherAnchors(nil, gpusim.New(1), data, g, cfg.AnchorStride),
		Outliers: &quant.Outliers{},
		Freq:     make([]int64, 256),
	}
	for i := range res.Codes {
		if isAnchor(i/(g.Ny*g.Nx), i/g.Nx%g.Ny, i%g.Nx, cfg.AnchorStride) {
			res.Codes[i] = quant.ZeroCode
		}
	}
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, res.Anchors)
		bk.loadAnchors()
		walkScalar(bk, func(z, y, x int, pred float32, own bool) float32 {
			idx := g.flat(z, y, x)
			code, recon, outlier := quant.Quantize(data[idx], pred, twoEB)
			if own {
				res.Codes[idx] = code
				if outlier {
					res.Outliers.Append(idx, data[idx])
				}
			}
			return recon
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
	out := make([]float32, g.Len())
	a := cfg.AnchorStride
	_, ay, ax := g.AnchorDims(a)
	for i := range out {
		z, y, x := i/(g.Ny*g.Nx), i/g.Nx%g.Ny, i%g.Nx
		if isAnchor(z, y, x, a) {
			out[i] = res.Anchors[((z/a)*ay+y/a)*ax+x/a]
		}
	}
	missing := false
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, res.Anchors)
		bk.loadAnchors()
		walkScalar(bk, func(z, y, x int, pred float32, own bool) float32 {
			idx := g.flat(z, y, x)
			v := quant.Dequantize(res.Codes[idx], pred, 2*eb)
			if res.Codes[idx] == quant.OutlierCode {
				var ok bool
				v, ok = res.Outliers.SortedGet(idx)
				missing = missing || !ok
			}
			if own {
				out[idx] = v
			}
			return v
		})
	}
	if missing {
		return out, fmt.Errorf("scalar oracle: outlier code with no value: %w", quant.ErrCorrupt)
	}
	return out, nil
}

// autoTuneScalarRef is AutoTune over the reference walk: the same sampled
// blocks, each level tried with every candidate over a buffer of original
// values, the absolute errors summed in point order, and the per-sample
// sums added in sample order.
func autoTuneScalarRef(data []float32, g Grid, cfg Config, sampleFrac float64) []LevelConfig {
	nbz, nby, nbx := blockGrid(g, &cfg)
	nBlocks := nbz * nby * nbx
	nSamples := min(nBlocks, max(2, int(math.Round(float64(nBlocks)*sampleFrac))))
	errs := make([][]float64, cfg.Levels())
	for si := 0; si < nSamples; si++ {
		bk := newTestBlock(g, &cfg, si*nBlocks/nSamples, nil)
		bk.fillFromData(data)
		li := 0
		for s := cfg.AnchorStride / 2; s >= 1; s >>= 1 {
			if si == 0 {
				errs[li] = make([]float64, len(tuneCandidates))
			}
			for ci, cand := range tuneCandidates {
				var sum float64
				walkLevelScalar(bk, s, cand, func(z, y, x int, pred float32, _ bool) float32 {
					v := data[g.flat(z, y, x)]
					sum += math.Abs(float64(v) - float64(pred))
					return v
				})
				errs[li][ci] += sum
			}
			li++
		}
	}
	out := make([]LevelConfig, len(errs))
	for li, e := range errs {
		best := 0
		for ci := range e {
			if e[ci] < e[best] {
				best = ci
			}
		}
		out[li] = tuneCandidates[best]
	}
	return out
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

				got, err := CompressCtx(nil, dev, f.Data, g, cfg, eb)
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
				gotRecon, err := DecompressCtx(nil, dev, got, g, cfg, eb)
				if err != nil {
					t.Fatalf("%s %v %s decompress: %v", name, dims, cn, err)
				}
				if !f32BitsEqual(gotRecon, wantRecon) {
					t.Fatalf("%s %v %s: reconstruction diverges", name, dims, cn)
				}
			}
			for _, cn := range []string{"hi", "cuszi"} {
				wantPicks := autoTuneScalarRef(f.Data, g, cfgs[cn], 0.2)
				if gotPicks := AutoTune(dev, f.Data, g, cfgs[cn], 0.2); !slices.Equal(gotPicks, wantPicks) {
					t.Fatalf("%s %v %s: AutoTune picks %v, scalar path picks %v", name, dims, cn, gotPicks, wantPicks)
				}
			}
		}
	}
}

// rowPredictions returns, level by level, the buffer of every block after
// it walked that one level from a buffer holding the field itself, as the
// per-level AutoTune walk starts: every neighbour a level's first phase
// reads comes from the field, and later phases of the level read the
// earlier phases' results. The blocks run the decode walk with every code
// ZeroCode and every dequantization offset -0, so each point reconstructs
// to its prediction's exact bits (p + -0 == p, zero signs included). With
// scalar set they run the reference walk instead.
func rowPredictions(data []float32, g Grid, cfg Config, scalar bool) []uint32 {
	var deq [256]float64
	for c := range deq {
		deq[c] = math.Copysign(0, -1)
	}
	var bits []uint32
	nbz, nby, nbx := blockGrid(g, &cfg)
	for bi := 0; bi < nbz*nby*nbx; bi++ {
		bk := newTestBlock(g, &cfg, bi, nil)
		li := 0
		for s := cfg.AnchorStride / 2; s >= 1; s >>= 1 {
			bk.fillFromData(data)
			if scalar {
				walkLevelScalar(bk, s, cfg.PerLevel[li], func(_, _, _ int, pred float32, _ bool) float32 { return pred })
			} else {
				for i := range bk.tile {
					bk.tile[i] = quant.ZeroCode
				}
				bk.deq = &deq
				bk.runLevel(s, cfg.PerLevel[li], decompressWalk)
			}
			for _, v := range bk.buf {
				bits = append(bits, math.Float32bits(v))
			}
			li++
		}
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
			want := rowPredictions(data, g, cfg, true)
			if got := rowPredictions(data, g, cfg, false); !slices.Equal(got, want) {
				t.Fatalf("%v %s: row predictions differ from predict", dims, cn)
			}
		}
	}
}

// TestStencilForMatchesInterp1 checks that the row kernel's formula table
// evaluates exactly what interp1 does for every availability pattern. Each
// stencil runs as a one-term set through dequantLattice on a one-point
// tile of ZeroCode whose offset is -0, so the stored value is the
// prediction's exact bits: the cubic and linear kinds through their own
// loops, every other kind through the generic one.
func TestStencilForMatchesInterp1(t *testing.T) {
	a, p, q, d := float32(-1.25), float32(3.5), float32(0.375), float32(7.75)
	var deq [256]float64
	deq[quant.ZeroCode] = math.Copysign(0, -1)
	// A one-point buffer segment laid out at offsets -3, -1, +1, +3.
	bk := &block{buf: []float32{a, 0, p, 0, q, 0, d}, tile: make([]uint8, 7), deq: &deq}
	bk.tile[3] = quant.ZeroCode
	for _, spline := range []Spline{Linear, Cubic} {
		for m := 0; m < 16; m++ {
			ha, hp, hq, hd := m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0
			want, wantOrder := interp1(a, p, q, d, ha, hp, hq, hd, spline)
			kind, order := stencilFor(ha, hp, hq, hd, spline)
			ts := termSet{init: negZero, n: 1, t: [3]rowTerm{{off: 1, kind: kind}}}
			if bk.dequantLattice(3, 1, 0, 1, 1, &ts) {
				t.Fatalf("%v flags %04b: a ZeroCode tile reported an outlier", spline, m)
			}
			if got := bk.buf[3]; order != wantOrder || math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%v flags %04b: stencil %d gives (%v, %d), interp1 (%v, %d)",
					spline, m, kind, got, order, want, wantOrder)
			}
		}
	}
}

// fuzzSpecials are the values FuzzCompressKernel sprinkles into its field.
var fuzzSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-40, -1e-40, math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1)),
	math.MaxFloat32, -math.MaxFloat32,
}

// FuzzCompressKernel compares CompressCtx with compressScalarRef over
// random grids (rank 1 to 3, extents off the block multiples), per-level
// scheme × spline picks (MD face and body rows included), bounds from
// 1e-32 to 1e308 (where 2eb overflows to +Inf), smooth fields and ramps
// offset so far from zero that float32 rounding of a reconstruction can
// miss the bound on either side, fields sprinkled with NaN, ±Inf, denormals, -0 and
// ±MaxFloat32, and 1- and 4-worker devices: codes, anchors, outliers,
// histogram and the decoded reconstruction must match bit for bit.
func FuzzCompressKernel(f *testing.F) {
	f.Add(uint32(0x0a1113), uint8(0), uint16(0x0db6), int8(-12), int64(1), float32(0), []byte{})
	f.Add(uint32(0x00251b), uint8(1), uint16(0x0924), int8(-20), int64(2), float32(0), []byte{0, 40, 0, 1, 7, 3})
	f.Add(uint32(0x000231), uint8(2), uint16(0x0fff), int8(-60), int64(3), float32(0), []byte{0, 3, 4, 0, 200, 5})
	f.Add(uint32(0x131f2a), uint8(3), uint16(0x0b6d), int8(127), int64(4), float32(0), []byte{1, 1, 0})
	f.Add(uint32(0x07090b), uint8(0), uint16(0x0492), int8(-128), int64(5), float32(0), []byte{0, 9, 2, 0, 10, 6, 0, 77, 8})
	f.Add(uint32(0x101010), uint8(5), uint16(0x0e38), int8(40), int64(6), float32(0), []byte{})
	f.Add(uint32(0x0c1418), uint8(16), uint16(0x0db6), int8(-28), int64(7), float32(1), []byte{})
	f.Add(uint32(0x0c1418), uint8(24), uint16(0x0492), int8(-28), int64(8), float32(-2), []byte{})
	ctx := arena.NewCtx()
	devs := [2]*gpusim.Device{gpusim.New(1), gpusim.New(4)}
	f.Fuzz(func(t *testing.T, shape uint32, sel uint8, levels uint16, ebExp int8, seed int64, offset float32, specials []byte) {
		var dims []int
		a, b, c := int(shape&0xff), int(shape>>8&0xff), int(shape>>16&0xff)
		switch sel % 3 {
		case 0:
			dims = []int{1 + a%24, 1 + b%24, 1 + c%40}
		case 1:
			dims = []int{1 + a%64, 1 + b%80}
		default:
			dims = []int{1 + (a<<8|b)%600}
		}
		cfg := HiConfig()
		if sel&4 != 0 {
			cfg = CuszIConfig()
		}
		for li := range cfg.PerLevel {
			cfg.PerLevel[li] = tuneCandidates[int(levels>>(3*li)&7)%len(tuneCandidates)]
		}
		eb := math.Pow(10, float64(ebExp)/4)
		if ebExp == math.MaxInt8 {
			eb = 1e308
		}
		g := NewGrid(dims)
		data := synthField([]int{g.Nz, g.Ny, g.Nx}, seed)
		for i := range data {
			if sel&16 != 0 { // a ramp, which the splines predict to within rounding
				data[i] = float32(i) * 0.01
			}
			if !math.IsInf(float64(offset), 0) && !math.IsNaN(float64(offset)) {
				data[i] += offset
			}
		}
		for k := 0; k+2 < len(specials) && k < 3*64; k += 3 {
			data[(int(specials[k])<<8|int(specials[k+1]))%len(data)] = fuzzSpecials[int(specials[k+2])%len(fuzzSpecials)]
		}
		want := compressScalarRef(data, g, cfg, eb)
		ctx.Reset()
		got, err := CompressCtx(ctx, devs[sel>>3&1], data, g, cfg, eb)
		if err != nil {
			t.Fatalf("%v eb %g: %v", dims, eb, err)
		}
		switch {
		case !slices.Equal(got.Codes, want.Codes):
			t.Fatalf("%v %v eb %g: codes diverge", dims, cfg.PerLevel, eb)
		case !f32BitsEqual(got.Anchors, want.Anchors):
			t.Fatalf("%v %v eb %g: anchors diverge", dims, cfg.PerLevel, eb)
		case !slices.Equal(got.Outliers.Pos, want.Outliers.Pos) || !f32BitsEqual(got.Outliers.Val, want.Outliers.Val):
			t.Fatalf("%v %v eb %g: outliers diverge", dims, cfg.PerLevel, eb)
		case !slices.Equal(got.Freq, want.Freq):
			t.Fatalf("%v %v eb %g: histogram diverges", dims, cfg.PerLevel, eb)
		}
		recon, err := DecompressCtx(nil, devs[sel>>3&1], got, g, cfg, eb)
		if err != nil {
			t.Fatalf("%v eb %g decompress: %v", dims, eb, err)
		}
		if !f32BitsEqual(recon, decompressScalarRef(want, g, cfg, eb)) {
			t.Fatalf("%v %v eb %g: reconstruction diverges", dims, cfg.PerLevel, eb)
		}
	})
}
