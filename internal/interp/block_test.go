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

// owns reports whether the block is the unique emitter for the point: the
// rule by which encode and storeOwned copy a block's rows out.
func (b *block) owns(z, y, x int) bool {
	return z < b.ohi[0] && y < b.ohi[1] && x < b.ohi[2] &&
		z >= b.lo[0] && y >= b.lo[1] && x >= b.lo[2]
}

// TestOwnershipPartition verifies the core parallel-safety invariant: over
// all blocks, every grid point is either an anchor or a predicted point,
// and is owned (emitted) by exactly one block. Anchors and the reference
// walk's points are counted with the owns rule; the production compress
// walk must also write every point of its block, which a NaN sentinel in
// the buffer shows.
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
		a := cfg.AnchorStride
		owned := make([]int, g.Len())
		visited := make([]int, g.Len())
		nbz, nby, nbx := blockGrid(g, &cfg)
		anchors := make([]float32, g.AnchorCount(a))
		zeros := make([]float32, g.Len())
		for bi := 0; bi < nbz*nby*nbx; bi++ {
			bk := newTestBlock(g, &cfg, bi, anchors)
			for z := bk.lo[0]; z <= bk.hi[0]; z += a {
				for y := bk.lo[1]; y <= bk.hi[1]; y += a {
					for x := bk.lo[2]; x <= bk.hi[2]; x += a {
						visited[g.flat(z, y, x)]++
						if bk.owns(z, y, x) {
							owned[g.flat(z, y, x)]++
						}
					}
				}
			}
			walkScalar(bk, func(z, y, x int, _ float32, own bool) float32 {
				visited[g.flat(z, y, x)]++
				if own {
					owned[g.flat(z, y, x)]++
				}
				return 0
			})
			for i := range bk.buf {
				bk.buf[i] = float32(math.NaN())
			}
			bk.loadAnchors()
			bk.data, bk.twoEB = zeros, 2e-3
			bk.run(compressWalk)
			for i, v := range bk.buf {
				if v != 0 {
					t.Fatalf("dims %v block %d: compress walk left local point %d at %v", tc.dims, bi, i, v)
				}
			}
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
// property that makes owner-only emission sound. Each block is decoded
// again in isolation, and every point of its buffer, owned or not, must
// match what its owner emitted into the decompressed field.
func TestSharedFaceDeterminism(t *testing.T) {
	dims := []int{33, 40, 47}
	g := NewGrid(dims)
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, g.Len())
	for i := range data {
		data[i] = rng.Float32()
	}
	eb := 1e-3
	var deq [256]float64
	for c := range deq {
		deq[c] = float64(c-quant.ZeroCode) * 2 * eb
	}
	for _, cfg := range []Config{HiConfig(), CuszIConfig()} {
		res, err := CompressCtx(nil, dev, data, g, cfg, eb)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecompressCtx(nil, dev, res, g, cfg, eb)
		if err != nil {
			t.Fatal(err)
		}
		nbz, nby, nbx := blockGrid(g, &cfg)
		shared := 0
		for bi := 0; bi < nbz*nby*nbx; bi++ {
			bk := newTestBlock(g, &cfg, bi, res.Anchors)
			bk.loadAnchors()
			bk.decode(res.Codes, &deq, res.Outliers)
			for z := bk.lo[0]; z <= bk.hi[0]; z++ {
				for y := bk.lo[1]; y <= bk.hi[1]; y++ {
					for x := bk.lo[2]; x <= bk.hi[2]; x++ {
						idx := g.flat(z, y, x)
						if v := bk.buf[bk.local(z, y, x)]; math.Float32bits(v) != math.Float32bits(out[idx]) {
							t.Fatalf("block %d: point %d reconstructs to %v, its owner emitted %v", bi, idx, v, out[idx])
						}
						if !bk.owns(z, y, x) {
							shared++
						}
					}
				}
			}
		}
		if shared == 0 {
			t.Fatal("no block recomputed a point it does not own")
		}
	}
}

// TestPhaseNeighborsAreKnown runs a sentinel check: at every prediction the
// neighbours the spline reads must already have been written (anchors or
// earlier phases). A constant-1 anchor field interpolates to exactly 1
// everywhere, so with a sentinel in unwritten cells the compress walk over
// a constant-1 field must code every point ZeroCode, and the decode walk
// over those codes must rebuild 1 everywhere.
func TestPhaseNeighborsAreKnown(t *testing.T) {
	for _, scheme := range []Scheme{Seq1DXYZ, Seq1DZYX, MD} {
		dims := []int{33, 33, 33}
		g := NewGrid(dims)
		cfg := HiConfig()
		cfg.PerLevel = uniformLevels(cfg.Levels(), LevelConfig{Scheme: scheme, Spline: Cubic})
		az, ay, ax := g.AnchorDims(cfg.AnchorStride)
		anchors := make([]float32, az*ay*ax)
		ones := make([]float32, g.Len())
		for i := range anchors {
			anchors[i] = 1
		}
		for i := range ones {
			ones[i] = 1
		}
		var deq [256]float64
		for c := range deq {
			deq[c] = float64(c-quant.ZeroCode) * 2e-3
		}
		bk := newTestBlock(g, &cfg, 0, anchors)
		sentinel := float32(-12345)
		for _, mode := range []walkMode{compressWalk, decompressWalk} {
			for i := range bk.buf {
				bk.buf[i] = sentinel
			}
			bk.loadAnchors()
			bk.data, bk.twoEB, bk.deq = ones, 2e-3, &deq
			bk.run(mode)
			for i := range bk.buf {
				if bk.tile[i] != quant.ZeroCode || bk.buf[i] != 1 {
					t.Fatalf("scheme %v mode %d: local point %d read unwritten neighbours (code %d, value %v)",
						scheme, mode, i, bk.tile[i], bk.buf[i])
				}
			}
		}
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
	res, err := CompressCtx(nil, dev, data, g, cfg, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	perm := quant.LevelOrderPermCtx(nil, dims, cfg.AnchorStride)
	nAnchors := g.AnchorCount(cfg.AnchorStride)
	for k := 0; k < nAnchors; k++ {
		if res.Codes[perm[k]] != quant.ZeroCode {
			t.Fatalf("reordered head slot %d is not an anchor zero code", k)
		}
	}
}
