package interp

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/quant"
)

// Result is the lossy decomposition output: the integer quantization codes
// (natural data layout), the lossless anchor values (row-major over the
// anchor lattice) and the outlier list.
type Result struct {
	Codes    []uint8
	Anchors  []float32
	Outliers *quant.Outliers
	// Freq is the histogram of Codes over [0, 256), accumulated inside the
	// quantization kernel (context scratch when a Ctx was supplied). It is
	// permutation-invariant, so it stays valid after level-order reordering.
	Freq []int64
}

// auxKey is this package's scratch slot in an arena.Ctx; blockOutKey holds
// the per-block outlier collectors (arena batch slots, persistent across
// Reset so steady-state appends never grow).
var (
	auxKey      = arena.NewAuxKey()
	blockOutKey = arena.NewAuxKey()
)

type iscratch struct {
	freq []int64
	// deq maps a decoded code c to its offset from the prediction,
	// (c − ZeroCode)·2eb: the product quant.Dequantize forms.
	deq [256]float64
	// missing records that decompression met an outlier code whose
	// position the outlier list lacks. Valid streams never have one, so it
	// marks the input corrupt.
	missing atomic.Bool
}

func scratchFor(ctx *arena.Ctx) *iscratch {
	if s, ok := ctx.Aux(auxKey).(*iscratch); ok {
		return s
	}
	s := &iscratch{}
	ctx.SetAux(auxKey, s)
	return s
}

// gatherAnchors extracts the dense anchor grid from data.
func gatherAnchors(ctx *arena.Ctx, dev *gpusim.Device, data []float32, g Grid, a int) []float32 {
	az, ay, ax := g.AnchorDims(a)
	out := ctx.F32(az * ay * ax)
	dev.Launch(az, func(iz int) {
		z := iz * a
		for iy := 0; iy < ay; iy++ {
			y := iy * a
			for ix := 0; ix < ax; ix++ {
				out[(iz*ay+iy)*ax+ix] = data[g.flat(z, y, ix*a)]
			}
		}
	})
	return out
}

// bufPool recycles per-block reconstruction buffers across kernel launches.
var bufPool = sync.Pool{New: func() any { return &block{} }}

// CompressCtx runs the interpolation predictor over data, producing quant
// codes, anchors and outliers. eb is the absolute error bound. With a
// non-nil ctx the code, anchor and histogram buffers of the Result are
// context scratch, valid until the next ctx.Reset.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, g Grid, cfg Config, eb float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.Len() != len(data) {
		return nil, fmt.Errorf("interp: grid %dx%dx%d does not match %d values", g.Nz, g.Ny, g.Nx, len(data))
	}
	if eb <= 0 {
		return nil, fmt.Errorf("interp: error bound %v must be positive", eb)
	}
	twoEB := 2 * eb
	s := scratchFor(ctx)
	if cap(s.freq) < 256 {
		s.freq = make([]int64, 256)
	}
	freq := s.freq[:256]
	clear(freq)
	res := &Result{
		Codes:    ctx.Bytes(g.Len()),
		Anchors:  gatherAnchors(ctx, dev, data, g, cfg.AnchorStride),
		Outliers: &quant.Outliers{},
		Freq:     freq,
	}
	azd, ayd, axd := g.AnchorDims(cfg.AnchorStride)
	nbz, nby, nbx := blockGrid(g, &cfg)
	nBlocks := nbz * nby * nbx
	perBlockOutliers := arena.Slots[quant.Outliers](ctx, blockOutKey, nBlocks)
	for i := range perBlockOutliers {
		perBlockOutliers[i].Pos = perBlockOutliers[i].Pos[:0]
		perBlockOutliers[i].Val = perBlockOutliers[i].Val[:0]
	}
	var freqMu sync.Mutex
	dev.Launch(nBlocks, func(bi int) {
		bk := bufPool.Get().(*block)
		defer bufPool.Put(bk)
		bx := bi % nbx
		by := (bi / nbx) % nby
		bz := bi / (nbx * nby)
		bk.initBlock(g, &cfg, bz, by, bx)
		bk.anchors = res.Anchors
		bk.az = [3]int{azd, ayd, axd}
		bk.loadAnchors()
		// Each owned point contributes exactly one code, so summing the
		// per-block histograms reproduces a full scan of res.Codes.
		var hist codeHist
		bk.encode(data, twoEB, res.Codes, &hist, &perBlockOutliers[bi])
		freqMu.Lock()
		for c := range freq {
			freq[c] += int64(hist[0][c]) + int64(hist[1][c]) + int64(hist[2][c]) + int64(hist[3][c])
		}
		freqMu.Unlock()
	})
	// Merge per-block outliers in ascending position order, into
	// context-drawn arrays sized by a counting pass.
	order := ctx.Ints(nBlocks)[:0]
	nOut := 0
	for i := range perBlockOutliers {
		if perBlockOutliers[i].Len() > 0 {
			order = append(order, i)
			nOut += perBlockOutliers[i].Len()
		}
	}
	res.Outliers.Pos = ctx.Ints(nOut)[:0]
	res.Outliers.Val = ctx.F32(nOut)[:0]
	sort.Slice(order, func(i, j int) bool {
		return perBlockOutliers[order[i]].Pos[0] < perBlockOutliers[order[j]].Pos[0]
	})
	for _, i := range order {
		res.Outliers.Pos = append(res.Outliers.Pos, perBlockOutliers[i].Pos...)
		res.Outliers.Val = append(res.Outliers.Val, perBlockOutliers[i].Val...)
	}
	sort.Sort(byPos{res.Outliers})
	return res, nil
}

// byPos sorts an outlier list by position, keeping values aligned.
type byPos struct{ o *quant.Outliers }

func (s byPos) Len() int           { return s.o.Len() }
func (s byPos) Less(i, j int) bool { return s.o.Pos[i] < s.o.Pos[j] }
func (s byPos) Swap(i, j int) {
	s.o.Pos[i], s.o.Pos[j] = s.o.Pos[j], s.o.Pos[i]
	s.o.Val[i], s.o.Val[j] = s.o.Val[j], s.o.Val[i]
}

// DecompressCtx reconstructs the whole field from a Result:
// DecompressPlanesCtx over every z-plane of g.
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, res *Result, g Grid, cfg Config, eb float64) ([]float32, error) {
	return DecompressPlanesCtx(ctx, dev, res, g, cfg, eb, 0, g.Nz)
}

// DecompressPlanesCtx reconstructs z-planes [z0, z1) of the field into a
// (z1−z0)·Ny·Nx slice. Blocks are predicted independently from their
// anchors, so only the blocks whose owned z-range overlaps the window run.
// With a non-nil ctx the returned planes are context scratch, valid until
// the next ctx.Reset.
//
// An outlier code whose position res.Outliers lacks is an error wrapping
// quant.ErrCorrupt — anywhere in the field, not only in the window, so a
// window decode fails exactly when the whole decode does.
func DecompressPlanesCtx(ctx *arena.Ctx, dev *gpusim.Device, res *Result, g Grid, cfg Config, eb float64, z0, z1 int) ([]float32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(res.Codes) != g.Len() {
		return nil, fmt.Errorf("interp: %d codes for grid of %d points", len(res.Codes), g.Len())
	}
	if want := g.AnchorCount(cfg.AnchorStride); len(res.Anchors) != want {
		return nil, fmt.Errorf("interp: %d anchors, want %d", len(res.Anchors), want)
	}
	if eb <= 0 {
		return nil, fmt.Errorf("interp: error bound %v must be positive", eb)
	}
	if z0 < 0 || z1 > g.Nz || z0 >= z1 {
		return nil, fmt.Errorf("interp: plane range %d:%d outside grid with %d planes", z0, z1, g.Nz)
	}
	twoEB := 2 * eb
	plane := g.Ny * g.Nx
	out := ctx.F32((z1 - z0) * plane)
	azd, ayd, axd := g.AnchorDims(cfg.AnchorStride)
	nbz, nby, nbx := blockGrid(g, &cfg)
	// Block layer bz owns z-planes [bz·BlockZ, (bz+1)·BlockZ), the last
	// layer up to Nz; [bz0, bz1) are the layers owning a window plane.
	bz0 := min(z0/cfg.BlockZ, nbz-1)
	bz1 := min((z1-1)/cfg.BlockZ, nbz-1) + 1
	sc := scratchFor(ctx)
	sc.missing.Store(false)
	for c := range sc.deq {
		sc.deq[c] = float64(c-quant.ZeroCode) * twoEB
	}
	dev.Launch((bz1-bz0)*nby*nbx, func(bi int) {
		bk := bufPool.Get().(*block)
		defer bufPool.Put(bk)
		bx := bi % nbx
		by := (bi / nbx) % nby
		bz := bz0 + bi/(nbx*nby)
		bk.initBlock(g, &cfg, bz, by, bx)
		bk.anchors = res.Anchors
		bk.az = [3]int{azd, ayd, axd}
		bk.loadAnchors()
		bk.decode(res.Codes, &sc.deq, res.Outliers)
		if bk.miss {
			sc.missing.Store(true)
		}
		bk.storeOwned(out, z0, z1)
	})
	// Skipped blocks still owe the whole decode's verdict.
	partial := bz0 > 0 || bz1 < nbz
	if sc.missing.Load() || partial && missingOutlier(res, g, cfg.AnchorStride) {
		return nil, fmt.Errorf("interp: outlier code with no outlier value: %w", quant.ErrCorrupt)
	}
	return out, nil
}

// missingOutlier reports whether any non-anchor point carries an outlier
// code whose position res.Outliers lacks — exactly the points a whole
// decode would look up and miss (anchor points take their stored values
// and never read their codes). One IndexByte sweep finds the outlier codes
// and a merge against the ascending positions checks them.
func missingOutlier(res *Result, g Grid, a int) bool {
	pos := res.Outliers.Pos
	j := 0
	for p := 0; ; p++ {
		k := bytes.IndexByte(res.Codes[p:], quant.OutlierCode)
		if k < 0 {
			return false
		}
		p += k
		x, y, z := p%g.Nx, p/g.Nx%g.Ny, p/(g.Nx*g.Ny)
		if (x|y|z)&(a-1) == 0 {
			continue
		}
		for j < len(pos) && pos[j] < p {
			j++
		}
		if j == len(pos) || pos[j] != p {
			return true
		}
	}
}
