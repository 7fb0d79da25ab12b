package interp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
)

// newTestBlock positions a block with grid index bi over anchors.
func newTestBlock(g Grid, cfg *Config, bi int, anchors []float32) *block {
	_, nby, nbx := blockGrid(g, cfg)
	az, ay, ax := g.AnchorDims(cfg.AnchorStride)
	bk := &block{}
	bk.initBlock(g, cfg, bi/(nbx*nby), (bi/nbx)%nby, bi%nbx)
	bk.anchors = anchors
	bk.az = [3]int{az, ay, ax}
	return bk
}

// TestOwnershipPartition verifies the core parallel-safety invariant: over
// all blocks, every grid point is either an anchor or a predicted point,
// and is owned (emitted) by exactly one block. Each row sink's owned
// prefix must be exactly the points the per-point owns test accepts.
func TestOwnershipPartition(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		cfg  Config
	}{
		{[]int{33, 33, 33}, HiConfig()},
		{[]int{17, 17, 17}, HiConfig()},
		{[]int{40, 23, 50}, HiConfig()},
		{[]int{1, 35, 70}, HiConfig()},
		{[]int{16, 16, 16}, HiConfig()},
		{[]int{20, 10, 65}, CuszIConfig()},
		{[]int{9, 9, 33}, CuszIConfig()},
		{[]int{2, 3, 5}, HiConfig()},
	} {
		g := NewGrid(tc.dims)
		cfg := tc.cfg
		owned := make([]int, g.Len())
		visited := make([]int, g.Len())
		nbz, nby, nbx := blockGrid(g, &cfg)
		anchors := make([]float32, g.AnchorCount(cfg.AnchorStride))
		for bi := 0; bi < nbz*nby*nbx; bi++ {
			bk := newTestBlock(g, &cfg, bi, anchors)
			bk.loadAnchors(func(z, y, x int, v float32) {
				idx := g.flat(z, y, x)
				visited[idx]++
				if bk.owns(z, y, x) {
					owned[idx]++
				}
			})
			bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
				for i := range preds {
					x := x0 + i*xstep
					if isOwned := i < nOwn; isOwned != bk.owns(z, y, x) {
						t.Fatalf("dims %v block %d: point (%d,%d,%d) in-prefix %v, owns %v",
							tc.dims, bi, z, y, x, isOwned, !isOwned)
					}
					idx := g.flat(z, y, x)
					visited[idx]++
					if i < nOwn {
						owned[idx]++
					}
					preds[i] = 0
				}
			})
		}
		for i := range owned {
			if owned[i] != 1 {
				x := i % g.Nx
				y := (i / g.Nx) % g.Ny
				z := i / (g.Nx * g.Ny)
				t.Fatalf("dims %v: point (%d,%d,%d) owned %d times", tc.dims, z, y, x, owned[i])
			}
			if visited[i] < 1 {
				t.Fatalf("dims %v: point %d never visited", tc.dims, i)
			}
		}
	}
}

// TestSharedFaceDeterminism verifies that a point computed redundantly by
// two adjacent blocks gets the identical reconstruction from both — the
// property that makes owner-only emission sound. Each block is re-run in
// isolation through the row API, and every point it reconstructs, owned
// or not, must match what its owner emitted into the decompressed field.
func TestSharedFaceDeterminism(t *testing.T) {
	dims := []int{33, 40, 47}
	g := NewGrid(dims)
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, g.Len())
	for i := range data {
		data[i] = rng.Float32()
	}
	eb := 1e-3
	for _, cfg := range []Config{HiConfig(), CuszIConfig()} {
		res, err := Compress(dev, data, g, cfg, eb)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(dev, res, g, cfg, eb)
		if err != nil {
			t.Fatal(err)
		}
		nbz, nby, nbx := blockGrid(g, &cfg)
		shared := 0
		for bi := 0; bi < nbz*nby*nbx; bi++ {
			bk := newTestBlock(g, &cfg, bi, res.Anchors)
			bk.loadAnchors(nil)
			bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
				g0 := g.flat(z, y, x0)
				for i := range preds {
					idx := g0 + i*xstep
					if c := res.Codes[idx]; c == quant.OutlierCode {
						preds[i], _ = res.Outliers.SortedGet(idx)
					} else {
						preds[i] = quant.Dequantize(c, preds[i], 2*eb)
					}
					if math.Float32bits(preds[i]) != math.Float32bits(out[idx]) {
						t.Fatalf("block %d: point %d reconstructs to %v, its owner emitted %v", bi, idx, preds[i], out[idx])
					}
					if i >= nOwn {
						shared++
					}
				}
			})
		}
		if shared == 0 {
			t.Fatal("no block recomputed a point it does not own")
		}
	}
}

// TestPhaseNeighborsAreKnown runs a sentinel check: at every prediction the
// neighbours the spline reads must already have been written (anchors or
// earlier phases). A NaN sentinel in unwritten cells would poison the
// prediction.
func TestPhaseNeighborsAreKnown(t *testing.T) {
	for _, scheme := range []Scheme{Seq1DXYZ, Seq1DZYX, MD} {
		dims := []int{33, 33, 33}
		g := NewGrid(dims)
		cfg := HiConfig()
		cfg.PerLevel = uniformLevels(cfg.Levels(), LevelConfig{Scheme: scheme, Spline: Cubic})
		az, ay, ax := g.AnchorDims(cfg.AnchorStride)
		anchors := make([]float32, az*ay*ax)
		for i := range anchors {
			anchors[i] = 1
		}
		bk := &block{}
		bk.initBlock(g, &cfg, 0, 0, 0)
		bk.anchors = anchors
		bk.az = [3]int{az, ay, ax}
		sentinel := float32(-12345)
		for i := range bk.buf {
			bk.buf[i] = sentinel
		}
		bk.loadAnchors(nil)
		bk.run(func(z, y, x0, xstep int, preds []float32, nOwn int) {
			// A constant-1 anchor field interpolates to exactly 1
			// everywhere; any sentinel leakage shifts the prediction.
			for i, pred := range preds {
				if pred != 1 {
					t.Fatalf("scheme %v: point (%d,%d,%d) read unwritten neighbours (pred %v)", scheme, z, y, x0+i*xstep, pred)
				}
			}
		})
	}
}

// TestReorderConsistentWithCompressedLevels checks that the Eq. 3 perm and
// the predictor agree on levels: all anchor-slot codes land in the head of
// the reordered stream.
func TestReorderConsistentWithCompressedLevels(t *testing.T) {
	dims := []int{33, 33, 33}
	g := NewGrid(dims)
	data := make([]float32, g.Len())
	rng := rand.New(rand.NewSource(6))
	for i := range data {
		data[i] = rng.Float32()
	}
	cfg := HiConfig()
	res, err := Compress(dev, data, g, cfg, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	perm := quant.LevelOrderPerm(dims, cfg.AnchorStride)
	nAnchors := g.AnchorCount(cfg.AnchorStride)
	for k := 0; k < nAnchors; k++ {
		if res.Codes[perm[k]] != quant.ZeroCode {
			t.Fatalf("reordered head slot %d is not an anchor zero code", k)
		}
	}
}
