package core

// This file implements the paper's future-work item 3 (§7): an
// auto-selection mechanism that picks a compressor archetype and lossless
// pipeline to fit the data characteristics. Candidates are scored by the
// estimator cascade (estimate.go): one interpolation pass and one Lorenzo
// pass over a shared sample slab price the assembly pipelines from their
// fused quant-code histograms, and a strided probe prices the backends —
// no candidate trial-compresses the input. A SelectionPolicy (policy.go)
// then decides the winner, and only the winner compresses for real.
// SelectShardCodecPolicy applies the same scoring per shard, which makes
// heterogeneous (format v5) containers adaptive at near-fixed-mode speed:
// a field whose character changes along the slow dimension gets a
// different codec where a different codec wins.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

// Selection is the outcome of AutoSelect.
type Selection struct {
	Codec Codec // the winning registered codec
	// Options is the winner's assembly configuration; it is the zero value
	// when a backend chunk codec (fzgpu/szp/szx) wins, since those expose
	// no Options — compress through Codec instead.
	Options Options
	// SampleCR is each candidate's estimated compression ratio on the
	// input, keyed by display name (Options.Name for assemblies, the wire
	// name for backend codecs), for reporting. Assembly entries come from
	// the histogram models; backend entries from the strided probe.
	SampleCR map[string]float64
	// Estimates holds the per-candidate size estimates the policy ranked,
	// in candidate order.
	Estimates []CandidateEstimate
}

// autoSelectCandidates returns the registered codecs AutoSelect evaluates:
// the three canonical assemblies plus the backend chunk codecs (fzgpu,
// szp, szx). The backends are error-bound-compatible here even though they
// take absolute bounds only, because every selection path scores under a
// resolved absolute bound: one-shot callers convert relative bounds before
// selecting, and relative-EB streams derive each shard's absolute bound
// from the shard's value range before scoring (stream.Writer.submitShard).
func autoSelectCandidates() []Codec {
	names := []string{"hi-cr", "hi-tp", "cusz-l", "fzgpu", "szp", "szx"}
	out := make([]Codec, 0, len(names))
	for _, name := range names {
		c, ok := CodecByName(name)
		if !ok {
			panic("core: auto-select candidate " + name + " not registered")
		}
		out = append(out, c)
	}
	return out
}

// sampleSlab extracts a contiguous central slab of roughly frac of the
// data (at least one full block row of the Hi predictor) along the slowest
// dimension, returning the slab and its dims. The slab keeps the field's
// original rank — collapsing a rank-4 field to 3-D slab dims would score
// the candidates on a different-shaped field than they will compress.
func sampleSlab(data []float32, dims []int, frac float64) ([]float32, []int) {
	ps := planeSize(dims)
	planes := int(frac * float64(dims[0]))
	minPlanes := 17 // one Hi block extent
	if planes < minPlanes {
		planes = minPlanes
	}
	if planes >= dims[0] {
		return data, dims
	}
	z0 := (dims[0] - planes) / 2
	slab := data[z0*ps : (z0+planes)*ps]
	slabDims := append([]int{planes}, dims[1:]...)
	return slab, slabDims
}

// AutoSelect scores every candidate on a sample of data via the estimator
// cascade under the absolute bound eb and returns pol's winner (nil pol =
// DefaultSelectionPolicy). Estimator scratch comes from ctx (nil allowed),
// which is Reset before returning: any scratch the caller obtained from it
// earlier is invalidated.
func AutoSelect(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64, pol SelectionPolicy) (*Selection, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: cannot auto-select on empty data")
	}
	if err := checkDims(data, dims); err != nil {
		return nil, err
	}
	if pol == nil {
		pol = DefaultSelectionPolicy
	}
	// One-shot selection happens once per input, so the whole sampled slab
	// is analyzed (no crop budget): accuracy is worth more than the
	// already-small cost of a single estimator pass.
	ests, err := estimateCandidates(ctx, dev, data, dims, eb, 0.1, 0)
	if err != nil {
		return nil, fmt.Errorf("core: auto-select: %w", err)
	}
	sel := &Selection{
		Codec:     ests[pol.Pick(ests)].Codec,
		SampleCR:  make(map[string]float64, len(ests)),
		Estimates: ests,
	}
	for _, e := range ests {
		sel.SampleCR[codecDisplayName(e.Codec)] = e.Ratio
	}
	if oc, ok := sel.Codec.(optioned); ok {
		sel.Options = oc.Options()
	}
	return sel, nil
}

// trialCompressions counts full candidate trial compressions performed by
// selection paths — the cost the estimator cascade exists to avoid. Only
// the trial-based reference scorer increments it; the estimator tests
// assert it stays untouched.
var trialCompressions atomic.Int64

// trialScoreSlab is the trial-based reference scorer: it compresses the
// already-sampled slab with every candidate through ctx and returns the
// per-candidate exact sizes, in candidate order. It is no longer on the
// selection path — the estimator-fidelity tests use it as ground truth,
// and it shares the caller's single sampled slab rather than re-sampling
// per probe. The context is Reset between candidates and before
// returning, so any scratch obtained from it earlier is invalidated.
func trialScoreSlab(ctx *arena.Ctx, dev *gpusim.Device, slab []float32, slabDims []int, eb float64) ([]int, error) {
	cands := autoSelectCandidates()
	sizes := make([]int, len(cands))
	for i, cand := range cands {
		ctx.Reset()
		blob, err := cand.Compress(ctx, dev, slab, slabDims, eb)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %s: %w", codecDisplayName(cand), err)
		}
		trialCompressions.Add(1)
		sizes[i] = len(blob)
	}
	ctx.Reset()
	return sizes, nil
}

// SelectShardCodecPolicy estimates every auto-select candidate's size on
// one shard (through ctx, which it Resets before returning) and returns
// pol's winner (nil = DefaultSelectionPolicy) with its size estimate, so
// callers can report estimator-vs-actual deltas. It is the per-chunk
// selector EncodeShard runs inside the pipeline workers; eb is the shard's
// absolute bound.
func SelectShardCodecPolicy(ctx *arena.Ctx, dev *gpusim.Device, shard []float32, dims []int, eb float64, pol SelectionPolicy) (Codec, CandidateEstimate, error) {
	if len(shard) == 0 {
		return nil, CandidateEstimate{}, fmt.Errorf("core: cannot select a codec for an empty shard")
	}
	if pol == nil {
		pol = DefaultSelectionPolicy
	}
	// Per-shard selection runs inside the streaming pipeline's workers, so
	// the estimator is budgeted to ~6% of the shard: that keeps auto-mode
	// throughput within ~15% of the best fixed mode while the shard's
	// central block rows still decide the ranking.
	ests, err := estimateCandidates(ctx, dev, shard, dims, eb, 0.25, len(shard)/16)
	if err != nil {
		return nil, CandidateEstimate{}, err
	}
	win := ests[pol.Pick(ests)]
	return win.Codec, win, nil
}

// codecDisplayName reports a codec's assembly display name (Options.Name)
// when it has one, falling back to the wire name.
func codecDisplayName(c Codec) string {
	if oc, ok := c.(optioned); ok {
		return oc.Options().Name
	}
	return c.Name()
}
