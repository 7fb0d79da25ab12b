package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// estimatorCases are the (field, bound) pairs the estimator tests sweep:
// the four benchmark stand-in datasets at two relative bounds, plus the
// smooth/noisy shard halves of the auto-mode benchmark field, a linear
// ramp, and a tiny input that falls back to whole-data sampling.
type estimatorCase struct {
	name string
	data []float32
	dims []int
	eb   float64
}

func estimatorCases(t testing.TB) []estimatorCase {
	var cases []estimatorCase
	for _, ds := range []string{"miranda", "jhtdb", "nyx", "cesm"} {
		dims := []int{48, 64, 64}
		if ds == "cesm" {
			dims = []int{128, 256}
		}
		f, err := datagen.Generate(ds, dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []float64{1e-2, 1e-3} {
			cases = append(cases, estimatorCase{
				fmt.Sprintf("%s/%g", ds, rel), f.Data, f.Dims, metrics.AbsEB(f.Data, rel)})
		}
	}
	dims := []int{32, 32, 32}
	n := 32 * 32 * 32
	smooth := make([]float32, n)
	noise := make([]float32, n)
	rng := rand.New(rand.NewSource(7))
	for z := 0; z < 32; z++ {
		for i := 0; i < 1024; i++ {
			smooth[z*1024+i] = float32(z)*0.5 + float32(i%32)*0.125 + float32(i/32)*0.25
			noise[z*1024+i] = float32(rng.NormFloat64() * 10)
		}
	}
	tiny := make([]float32, 64)
	for i := range tiny {
		tiny[i] = float32(i)
	}
	return append(cases,
		estimatorCase{"smooth-shard", smooth, dims, 2.56e-1},
		estimatorCase{"noise-shard", noise, dims, 8e-1},
		estimatorCase{"ramp", rampField(32 * 24 * 24), []int{32, 24, 24}, 0.02},
		estimatorCase{"tiny4", tiny, []int{4, 4, 4}, 1e-3},
	)
}

// TestEstimatorPickNearTrialPick is the estimator-fidelity property: on
// every case, compressing the full input with the estimator's pick must
// cost at most 10% more bytes than compressing it with the exhaustive
// trial pick (every candidate compressed for real, smallest wins). The
// estimator does not have to agree with the trial ranking — close seconds
// are fine — it must not pick a materially worse codec.
func TestEstimatorPickNearTrialPick(t *testing.T) {
	ctx := arena.NewCtx()
	for _, c := range estimatorCases(t) {
		sel, err := AutoSelect(nil, dev, c.data, c.dims, c.eb, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pickBytes := -1
		trialBest := -1
		for _, cand := range autoSelectCandidates() {
			ctx.Reset()
			blob, err := cand.Compress(ctx, dev, c.data, c.dims, c.eb)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, cand.Name(), err)
			}
			if trialBest < 0 || len(blob) < trialBest {
				trialBest = len(blob)
			}
			if cand.ID() == sel.Codec.ID() {
				pickBytes = len(blob)
			}
		}
		ctx.Reset()
		if pickBytes < 0 {
			t.Fatalf("%s: estimator pick %s not among candidates", c.name, sel.Codec.Name())
		}
		if float64(pickBytes) > 1.10*float64(trialBest) {
			t.Errorf("%s: estimator pick %s compresses to %d bytes, trial best is %d (+%.1f%%, want <= +10%%)",
				c.name, sel.Codec.Name(), pickBytes, trialBest,
				100*(float64(pickBytes)/float64(trialBest)-1))
		}
	}
}

// TestEstimatorPerformsNoTrialCompressions guards the whole point of the
// estimator cascade: selection — one-shot and per-shard, under every
// policy — must never fall back to trial-compressing candidates. Only
// trialScoreSlab (the test-side reference scorer) increments the counter.
func TestEstimatorPerformsNoTrialCompressions(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{48, 64, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := metrics.AbsEB(f.Data, 1e-2)
	ctx := arena.NewCtx()
	before := trialCompressions.Load()
	if _, err := AutoSelect(nil, dev, f.Data, f.Dims, eb, nil); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []SelectionPolicy{BestRatioPolicy(), ThroughputPolicy(), RatioFloorPolicy(10)} {
		if _, _, err := SelectShardCodecPolicy(ctx, dev, f.Data, f.Dims, eb, pol); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
	if got := trialCompressions.Load(); got != before {
		t.Fatalf("selection performed %d trial compressions, want 0", got-before)
	}

	// The reference scorer still works — and is what increments the counter.
	slab, slabDims := sampleSlab(f.Data, f.Dims, 0.1)
	sizes, err := trialScoreSlab(ctx, dev, slab, slabDims, eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 6 {
		t.Fatalf("trial sizes: %v", sizes)
	}
	if got := trialCompressions.Load() - before; got != 6 {
		t.Fatalf("trialScoreSlab counted %d trials, want 6", got)
	}
}

// TestEstimatorAgainstTrialRankingOnSlab cross-checks the two scorers on
// the shared slab: the estimator's best assembly-or-backend must be the
// trial scorer's best or within 10% of it in trial bytes. This pins the
// satellite requirement that both scorers consume one pre-sampled slab
// (trialScoreSlab takes the slab, not the field, so there is no
// per-candidate re-sampling anywhere).
func TestEstimatorAgainstTrialRankingOnSlab(t *testing.T) {
	ctx := arena.NewCtx()
	for _, c := range estimatorCases(t) {
		ests, err := estimateCandidates(ctx, dev, c.data, c.dims, c.eb, 0.1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		best := 0
		for i, e := range ests {
			if e.Bytes < ests[best].Bytes {
				best = i
			}
		}
		slab, slabDims := sampleSlab(c.data, c.dims, 0.1)
		sizes, err := trialScoreSlab(ctx, dev, slab, slabDims, c.eb)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trialBest := 0
		for i, s := range sizes {
			if s < sizes[trialBest] {
				trialBest = i
			}
		}
		if float64(sizes[best]) > 1.10*float64(sizes[trialBest]) {
			t.Errorf("%s: estimator best %s costs %d trial bytes, trial best %s costs %d",
				c.name, ests[best].Codec.Name(), sizes[best],
				ests[trialBest].Codec.Name(), sizes[trialBest])
		}
	}
}

// TestEstimateCandidatesShape pins the estimate records themselves: six
// candidates in fixed order, positive sizes, ratios consistent with Bytes,
// and Probed set exactly on the backend candidates.
func TestEstimateCandidatesShape(t *testing.T) {
	data := rampField(32 * 24 * 24)
	ctx := arena.NewCtx()
	ests, err := estimateCandidates(ctx, dev, data, []int{32, 24, 24}, 0.02, 0.25, len(data)/16)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"hi-cr", "hi-tp", "cusz-l", "fzgpu", "szp", "szx"}
	if len(ests) != len(wantNames) {
		t.Fatalf("got %d estimates", len(ests))
	}
	raw := float64(4 * len(data))
	for i, e := range ests {
		if e.Codec.Name() != wantNames[i] {
			t.Fatalf("estimate %d is %s, want %s", i, e.Codec.Name(), wantNames[i])
		}
		if e.Bytes <= 0 {
			t.Fatalf("%s: estimated %d bytes", e.Codec.Name(), e.Bytes)
		}
		if want := raw / float64(e.Bytes); e.Ratio != want {
			t.Fatalf("%s: ratio %v, want %v", e.Codec.Name(), e.Ratio, want)
		}
		if backend := i >= 3; e.Probed != backend {
			t.Fatalf("%s: Probed = %v", e.Codec.Name(), e.Probed)
		}
	}
}

// TestCropSlab pins the estimator's analysis budget: oversized slabs are
// center-cropped in their trailing dims only (full z extent, original
// rank), tiny budgets clamp at one Hi block extent, and within-budget or
// rank-1 slabs pass through untouched.
func TestCropSlab(t *testing.T) {
	ctx := arena.NewCtx()
	dims := []int{17, 64, 64}
	slab := make([]float32, 17*64*64)
	for i := range slab {
		slab[i] = float32(i)
	}
	crop, cdims := cropSlab(ctx, slab, dims, len(slab)/4)
	if cdims[0] != 17 || len(cdims) != 3 {
		t.Fatalf("crop dims = %v", cdims)
	}
	if cdims[1] >= 64 || cdims[2] >= 64 || cdims[1] < 17 || cdims[2] < 17 {
		t.Fatalf("crop extents = %v", cdims)
	}
	if len(crop) != cdims[0]*cdims[1]*cdims[2] {
		t.Fatalf("crop len %d for dims %v", len(crop), cdims)
	}
	// The crop is the center window: element (z, y, x) of the crop equals
	// element (z, y0+y, x0+x) of the slab.
	y0, x0 := (64-cdims[1])/2, (64-cdims[2])/2
	for z := 0; z < cdims[0]; z += 5 {
		for y := 0; y < cdims[1]; y += 7 {
			for x := 0; x < cdims[2]; x += 7 {
				want := slab[(z*64+y0+y)*64+x0+x]
				got := crop[(z*cdims[1]+y)*cdims[2]+x]
				if got != want {
					t.Fatalf("crop[%d,%d,%d] = %v, want %v", z, y, x, got, want)
				}
			}
		}
	}
	// Within budget: untouched.
	same, sdims := cropSlab(ctx, slab, dims, len(slab))
	if &same[0] != &slab[0] || sdims[1] != 64 {
		t.Fatal("within-budget slab must pass through")
	}
	// Tiny budget clamps at one block extent per axis.
	tiny, tdims := cropSlab(ctx, slab, dims, 1)
	if tdims[1] != 17 || tdims[2] != 17 || len(tiny) != 17*17*17 {
		t.Fatalf("tiny crop = %v (%d)", tdims, len(tiny))
	}
	// Rank-1 passes through.
	line := make([]float32, 500)
	l, ldims := cropSlab(ctx, line, []int{500}, 10)
	if len(l) != 500 || ldims[0] != 500 {
		t.Fatal("rank-1 slab must pass through")
	}
}

// TestEstimatorCalibrationReport prints estimator-vs-actual sizes for
// every case and candidate — the table the calibration constants in
// estimate.go were fitted against. It only fails if an estimate is absurd
// (off by more than 8x): the ranking tests above are the real guard; this
// keeps the table one `-run TestEstimatorCalibrationReport -v` away.
func TestEstimatorCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration table")
	}
	ctx := arena.NewCtx()
	for _, c := range estimatorCases(t) {
		ests, err := estimateCandidates(ctx, dev, c.data, c.dims, c.eb, 0.25, len(c.data)/10)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("== %s (n=%d)", c.name, len(c.data))
		for _, e := range ests {
			ctx.Reset()
			blob, err := e.Codec.Compress(ctx, dev, c.data, c.dims, c.eb)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, e.Codec.Name(), err)
			}
			delta := 100 * (float64(e.Bytes) - float64(len(blob))) / float64(len(blob))
			t.Logf("  %-8s est=%8d actual=%8d  delta=%+6.1f%%", e.Codec.Name(), e.Bytes, len(blob), delta)
			if float64(e.Bytes) > 8*float64(len(blob)) || float64(e.Bytes) < float64(len(blob))/8 {
				t.Errorf("%s/%s: estimate %d absurdly far from actual %d", c.name, e.Codec.Name(), e.Bytes, len(blob))
			}
			ctx.Reset()
		}
	}
}

// BenchmarkSelectShardCodec measures the per-shard selection cost alone —
// the overhead auto mode pays over a fixed mode before the winner
// compresses the shard.
func BenchmarkSelectShardCodec(b *testing.B) {
	dims := []int{32, 256, 256}
	data := make([]float32, 32*256*256)
	for i := range data {
		data[i] = float32(i % 97)
	}
	dev1 := gpusim.New(1)
	ctx := arena.NewCtx()
	if _, _, err := SelectShardCodecPolicy(ctx, dev1, data, dims, 0.05, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SelectShardCodecPolicy(ctx, dev1, data, dims, 0.05, nil); err != nil {
			b.Fatal(err)
		}
	}
}
