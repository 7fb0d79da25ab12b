package core

// Estimator cascade for auto-mode codec selection.
//
// The original selector trial-compressed every candidate on a sample slab
// and kept the smallest output — correct, but a ~3× tax on the adaptive
// streaming path (six candidates, five results discarded). This file
// replaces the trials with size *estimates* computed from data the
// predictors already produce in one pass:
//
//   - One interpolation-predictor pass over a shared sample slab — tuned
//     with the §5.1.3 auto-tuner, whose 0.2% block sampling costs almost
//     nothing, so the histogram matches what the real compressor would
//     produce — yields the fused quant-code histogram (interp.Result.Freq).
//     Both Hi assemblies share that predictor, so the histogram prices
//     their pipelines without running either: the CR pipeline is priced at
//     the histogram's Shannon entropy (its lossless tail reclaims
//     Huffman's one-bit floor), the TP pipeline per bitplane from the same
//     bins (bitplaneBitsPerSym).
//   - One Lorenzo pass over the same slab yields the uint16 histogram that
//     prices cuSZ-L's Huffman stage, plus exact escape/outlier side-channel
//     rates.
//   - The self-contained backends (fzgpu/szp/szx) have no shared analysis
//     pass, so they are ranked by really compressing a strided probe — a
//     few planes gathered from across the slab — and scaling. The probe is
//     a small fraction of the slab and the backends are the fastest codecs
//     in the registry, so this costs far less than one assembly trial.
//
// Only the winning candidate ever compresses the full input. The slab is
// sampled once and shared by every estimate (and by the trial-based
// reference scorer, kept for tests), never re-sampled per candidate.

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/interp"
	"repro/internal/lorenzo"
	"repro/internal/quant"
)

// Estimator calibration. The histogram prices only the entropy stage;
// these constants account for what it cannot see. They are calibrated
// against actual compressed sizes on the repository's datagen fields (the
// estimator-fidelity property test keeps them honest).
const (
	// hiCRPipeFactor scales the Shannon entropy of the tuned quant-code
	// histogram to the HF-RRE4-TCMS8-RZE1 output. Shannon — not the
	// Huffman code lengths — because the tail stages reclaim most of
	// Huffman's one-bit-per-symbol floor on skewed histograms (runs of
	// the dominant code's bit collapse under RRE4/RZE1); the factor
	// covers what they cannot reclaim at mid entropy.
	hiCRPipeFactor = 1.06
	// hiTPPipeFactor and tpConstBits scale the summed per-bitplane binary
	// entropies to the TCMS1-BIT1-RRE1 output: RRE1 is a run eliminator,
	// not an entropy coder, so it pays a little over the per-plane
	// entropy, plus the (recursively eliminated) keep/drop bitmaps.
	hiTPPipeFactor = 1.16
	tpConstBits    = 0.04
	// hfOverheadBytes covers the Huffman container bookkeeping of the CR
	// pipeline (RLE code-length table, chunk directory) that the entropy
	// term does not include.
	hfOverheadBytes = 64
	// interpHeaderBytes / lorenzoHeaderBytes cover the v1 container +
	// predictor headers (magic, dims, eb, interp config, section lengths).
	interpHeaderBytes  = 40
	lorenzoHeaderBytes = 24
	// backendHeaderBytes is the fixed part of a backend payload (magic,
	// dims, eb) that must not be scaled up with the probe.
	backendHeaderBytes = 24
	// probeMaxPlanes bounds the strided backend probe: enough planes to
	// see the slab's character, few enough that three backend probes cost
	// a fraction of one assembly trial.
	probeMaxPlanes = 4
)

// CandidateEstimate is one auto-select candidate's predicted compressed
// size for the full input, produced without compressing it.
type CandidateEstimate struct {
	Codec Codec
	// Bytes is the predicted compressed size of the full input.
	Bytes int
	// Ratio is the predicted compression ratio (4·n / Bytes).
	Ratio float64
	// Probed marks backend candidates, whose estimate comes from really
	// compressing a strided probe rather than from a histogram model.
	Probed bool
}

// binEntropy returns the binary entropy of p in bits.
//
//cuszhi:hotpath
func binEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// bitplaneBitsPerSym prices the TCMS1-BIT1-RRE1 pipeline from the quant
// code histogram: TCMS1 zigzag-maps each code byte (the exact transform
// the pipeline applies), BIT1 transposes the stream into eight bitplanes,
// and RRE1 eliminates repeated plane bytes — which a histogram can only
// see as the per-plane bit bias, so each plane is priced at its binary
// entropy plus the shared bitmap overhead. Planes that are almost always
// 0 or almost always 1 (the common case: well-predicted codes map to a
// handful of zigzag values) cost almost nothing, exactly as RRE1 behaves.
//
//cuszhi:hotpath
func bitplaneBitsPerSym(freq []int64) float64 {
	var total int64
	var ones [8]int64
	for sym, f := range freq {
		if f == 0 {
			continue
		}
		total += f
		b := byte(sym)
		m := (b << 1) ^ byte(int8(b)>>7) // TCMS1 zigzag
		for bit := 0; bit < 8; bit++ {
			if m&(1<<bit) != 0 {
				ones[bit] += f
			}
		}
	}
	if total == 0 {
		return 0
	}
	var bits float64
	for _, c := range ones {
		bits += binEntropy(float64(c) / float64(total))
	}
	return bits
}

// outlierBytes returns the exact serialized size of an outlier section.
func outlierBytes(o *quant.Outliers) int {
	n := bitio.UvarintLen(uint64(o.Len()))
	prev := 0
	for _, p := range o.Pos {
		n += bitio.UvarintLen(uint64(p - prev))
		prev = p
	}
	return n + 4*len(o.Val)
}

// estimateCandidates scores every auto-select candidate for the full input
// from one shared sample slab, in candidate order. budget > 0 caps the
// analysis volume in elements: sampleSlab's one-block-extent floor can make
// the slab a large fraction of a small shard, so perf-critical callers
// (per-shard selection) crop the slab's trailing dims down to the budget.
// ctx is Reset once, on return — the cropped slab and probe live in its
// arena, so any scratch the caller obtained earlier is invalidated.
func estimateCandidates(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb, frac float64, budget int) ([]CandidateEstimate, error) {
	slab, slabDims := sampleSlab(data, dims, frac)
	if budget > 0 {
		slab, slabDims = cropSlab(ctx, slab, slabDims, budget)
	}
	n, m := len(data), len(slab)
	scale := float64(n) / float64(m)
	rawBytes := float64(4 * n)

	// One tuned interpolation pass serves both Hi assemblies: AutoTune's
	// sampled dry runs cost a fraction of the pass itself, and without it
	// the histogram is measurably wider than the real (tuned) compressor's
	// on fields where the default MD+cubic schemes lose.
	cfg := interp.HiConfig()
	gSlab := interp.NewGrid(slabDims)
	cfg.PerLevel = interp.AutoTune(dev, slab, gSlab, cfg, interp.DefaultSampleFraction)
	resI, err := interp.CompressCtx(ctx, dev, slab, gSlab, cfg, eb)
	if err != nil {
		return nil, fmt.Errorf("estimate hi predictor: %w", err)
	}
	anchorBytes := 4 * interp.NewGrid(dims).AnchorCount(cfg.AnchorStride)
	outRate := float64(outlierBytes(resI.Outliers)) * scale
	sideBytes := float64(anchorBytes) + outRate + interpHeaderBytes
	hBits := quant.HistEntropyBits(resI.Freq)
	hiCRBytes := int(hBits*hiCRPipeFactor*float64(n)/8 + hfOverheadBytes + sideBytes)
	tpBits := bitplaneBitsPerSym(resI.Freq)
	hiTPBytes := int((tpBits*hiTPPipeFactor+tpConstBits)*float64(n)/8 + sideBytes)

	// One Lorenzo pass prices cuSZ-L: Huffman over the uint16 alphabet
	// plus the exact (scaled) escape and value-outlier side channels.
	resL, err := lorenzo.CompressCtx(ctx, dev, slab, lorenzo.NewGrid(slabDims), eb)
	if err != nil {
		return nil, fmt.Errorf("estimate lorenzo predictor: %w", err)
	}
	hfL, err := huffman.EstimateEncodedBytes(ctx, resL.Freq, n)
	if err != nil {
		return nil, fmt.Errorf("estimate cusz-l entropy stage: %w", err)
	}
	escBytes := 0
	for _, e := range resL.Escapes {
		escBytes += bitio.UvarintLen(bitio.ZigZag(e))
	}
	cuszLBytes := int(float64(hfL) + (float64(escBytes)+float64(outlierBytes(&resL.ValOutliers)))*scale + lorenzoHeaderBytes)

	// Strided backend probe: a few planes gathered from across the slab,
	// compressed for real by each backend and scaled to the full input.
	probe, probeDims := strideProbe(ctx, slab, slabDims)
	probeScale := float64(n) / float64(len(probe))

	out := make([]CandidateEstimate, 0, 6)
	for _, cand := range autoSelectCandidates() {
		est := CandidateEstimate{Codec: cand}
		switch cand.ID() {
		case CodecHiCR:
			est.Bytes = hiCRBytes
		case CodecHiTP:
			est.Bytes = hiTPBytes
		case CodecCuszL:
			est.Bytes = cuszLBytes
		default:
			blob, err := cand.Compress(ctx, dev, probe, probeDims, eb)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", cand.Name(), err)
			}
			body := len(blob) - backendHeaderBytes
			if body < 0 {
				body = 0
			}
			est.Bytes = int(float64(body)*probeScale) + backendHeaderBytes
			est.Probed = true
		}
		if est.Bytes < 1 {
			est.Bytes = 1
		}
		est.Ratio = rawBytes / float64(est.Bytes)
		out = append(out, est)
	}
	ctx.Reset()
	return out, nil
}

// strideProbe gathers up to probeMaxPlanes planes, evenly strided across
// the slab, into contiguous ctx scratch — the miniature field the backend
// candidates compress for real. A slab at or under the budget is returned
// as is.
func strideProbe(ctx *arena.Ctx, slab []float32, slabDims []int) ([]float32, []int) {
	planes := slabDims[0]
	if planes <= probeMaxPlanes {
		return slab, slabDims
	}
	ps := planeSize(slabDims)
	probe := ctx.F32(probeMaxPlanes * ps)
	for i := 0; i < probeMaxPlanes; i++ {
		z := i * (planes - 1) / (probeMaxPlanes - 1)
		copy(probe[i*ps:(i+1)*ps], slab[z*ps:(z+1)*ps])
	}
	probeDims := append([]int{probeMaxPlanes}, slabDims[1:]...)
	return probe, probeDims
}

// cropSlab bounds the estimator's analysis volume: sampleSlab is
// plane-granular with a one-block-extent floor, so on a small shard the
// slab can be half the shard — too much data to analyze at near-fixed-mode
// speed. The trailing two dims are center-cropped toward budget elements
// (each kept at one Hi block extent or more, preserving the field's rank
// and the slab's full z extent) and gathered into ctx scratch. Rank-1
// slabs pass through: they cannot be cropped without losing their only
// interpolation axis.
func cropSlab(ctx *arena.Ctx, slab []float32, dims []int, budget int) ([]float32, []int) {
	if len(slab) <= budget || len(dims) < 2 {
		return slab, dims
	}
	ny, nx := dims[len(dims)-2], dims[len(dims)-1]
	f := math.Sqrt(float64(budget) / float64(len(slab)))
	cy, cx := cropExtent(ny, f), cropExtent(nx, f)
	if cy == ny && cx == nx {
		return slab, dims
	}
	lead := len(slab) / (ny * nx)
	out := ctx.F32(lead * cy * cx)
	y0, x0 := (ny-cy)/2, (nx-cx)/2
	for l := 0; l < lead; l++ {
		for y := 0; y < cy; y++ {
			src := (l*ny+y0+y)*nx + x0
			copy(out[(l*cy+y)*cx:(l*cy+y+1)*cx], slab[src:src+cx])
		}
	}
	cdims := append([]int(nil), dims...)
	cdims[len(dims)-2], cdims[len(dims)-1] = cy, cx
	return out, cdims
}

// cropExtent scales one extent by f, clamped to a full Hi block extent so
// the interpolation predictor still sees whole blocks along that axis.
func cropExtent(extent int, f float64) int {
	c := int(f * float64(extent))
	if c < 17 {
		c = 17
	}
	if c > extent {
		c = extent
	}
	return c
}
