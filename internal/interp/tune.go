package interp

import (
	"math"

	"repro/internal/gpusim"
	"repro/internal/quant"
)

// This file implements the workload-balanced interpolation auto-tuning of
// §5.1.3: uniformly sampled blocks (~0.2 % of the data volume) are
// test-interpolated at every level with every candidate (scheme, spline)
// configuration, prediction errors are aggregated per (level, candidate),
// and the per-level argmin is selected. The paper balances the tests across
// thread blocks per level (coarse levels share a block, level-1 tests get
// six); here every (sample, candidate) pair is an independent task on the
// device, which is the same workload-spreading idea under the goroutine
// executor.

// DefaultSampleFraction is the block sampling rate used by auto-tuning.
const DefaultSampleFraction = 0.002

// tuneCandidates are the (scheme, spline) combinations evaluated per level.
var tuneCandidates = []LevelConfig{
	{Scheme: Seq1DXYZ, Spline: Linear},
	{Scheme: Seq1DXYZ, Spline: Cubic},
	{Scheme: Seq1DZYX, Spline: Linear},
	{Scheme: Seq1DZYX, Spline: Cubic},
	{Scheme: MD, Spline: Linear},
	{Scheme: MD, Spline: Cubic},
}

// predictionDeq is tuning's code-to-offset table: its tile holds only
// ZeroCode, and the offset -0 makes the decode pass store each point's
// prediction with its exact bits.
var predictionDeq = func() (deq [256]float64) {
	deq[quant.ZeroCode] = math.Copysign(0, -1)
	return deq
}()

// fillFromData loads the block's entire extent with original values, the
// neighbour source used by tuning's dry runs.
func (b *block) fillFromData(data []float32) {
	for z := b.lo[0]; z <= b.hi[0]; z++ {
		for y := b.lo[1]; y <= b.hi[1]; y++ {
			base := b.local(z, y, b.lo[2])
			gbase := b.g.flat(z, y, b.lo[2])
			copy(b.buf[base:base+b.ext[2]], data[gbase:gbase+b.ext[2]])
		}
	}
}

// AutoTune selects the per-level LevelConfig minimizing aggregate absolute
// prediction error over sampled blocks. sampleFrac <= 0 selects
// DefaultSampleFraction.
func AutoTune(dev *gpusim.Device, data []float32, g Grid, cfg Config, sampleFrac float64) []LevelConfig {
	if sampleFrac <= 0 {
		sampleFrac = DefaultSampleFraction
	}
	levels := cfg.Levels()
	nbz, nby, nbx := blockGrid(g, &cfg)
	nBlocks := nbz * nby * nbx
	nSamples := int(math.Round(float64(nBlocks) * sampleFrac))
	if nSamples < 2 {
		nSamples = 2
	}
	if nSamples > nBlocks {
		nSamples = nBlocks
	}
	type errMat = [][]float64
	partials := gpusim.Reduce(dev, nSamples, func(si int) errMat {
		bi := si * nBlocks / nSamples
		bx := bi % nbx
		by := (bi / nbx) % nby
		bz := bi / (nbx * nby)
		bk := bufPool.Get().(*block)
		defer bufPool.Put(bk)
		bk.initBlock(g, &cfg, bz, by, bx)
		bk.fillFromData(data)
		for i := range bk.tile {
			bk.tile[i] = quant.ZeroCode
		}
		bk.deq = &predictionDeq
		errs := make(errMat, levels)
		for li := range errs {
			errs[li] = make([]float64, len(tuneCandidates))
		}
		bk.data = data
		li := 0
		for s := cfg.AnchorStride / 2; s >= 1; s >>= 1 {
			for ci, cand := range tuneCandidates {
				bk.tuneErr = 0
				bk.runLevel(s, cand, tuneWalk)
				errs[li][ci] = bk.tuneErr
			}
			li++
		}
		bk.data, bk.deq = nil, nil
		return errs
	}, func(a, b errMat) errMat {
		for li := range a {
			for ci := range a[li] {
				a[li][ci] += b[li][ci]
			}
		}
		return a
	})
	out := make([]LevelConfig, levels)
	for li := 0; li < levels; li++ {
		best := 0
		for ci := 1; ci < len(tuneCandidates); ci++ {
			if partials[li][ci] < partials[li][best] {
				best = ci
			}
		}
		out[li] = tuneCandidates[best]
	}
	return out
}
