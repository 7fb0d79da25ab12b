package lccodec

// This file implements the pipeline-search methodology of §5.2.2: the LC
// framework "enables users to traverse diverse component combinations for
// the files requiring compression". Search enumerates pipelines up to a
// stage limit over a component alphabet, measures ratio and wall time on a
// sample, and returns the Pareto frontier — the procedure the authors used
// to arrive at HF-RRE4-TCMS8-RZE1 and TCMS1-BIT1-RRE1.

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

// SearchResult is one evaluated pipeline.
type SearchResult struct {
	Spec    string
	Ratio   float64
	Seconds float64 // encode+decode wall time on the sample
	Pareto  bool    // on the ratio/time frontier
}

// DefaultSearchComponents is the component alphabet used by Search when
// none is given — the stages appearing in the paper's Fig. 6 pipelines.
var DefaultSearchComponents = []string{
	"HF", "RRE1", "RRE2", "RRE4", "RZE1", "TCMS1", "TCMS8", "BIT1", "DIFFMS1", "CLOG1", "TUPLQ1",
}

// SearchCtx evaluates every pipeline of 1..maxStages components (no
// immediate repeats) on sample, returning results sorted by ratio (best
// first) with the Pareto frontier marked. maxStages is clamped to [1,3] to
// keep the enumeration tractable (the paper notes pipelines beyond 3-4
// stages are not necessary).
//
// A non-nil ctx supplies every candidate's trial buffers: it is Reset
// before each candidate, so one warm set of slots serves the whole
// enumeration. The context is left reset on return; scratch the caller
// obtained from it earlier is invalidated.
func SearchCtx(ctx *arena.Ctx, dev *gpusim.Device, sample []byte, components []string, maxStages int) ([]SearchResult, error) {
	if len(components) == 0 {
		components = DefaultSearchComponents
	}
	if maxStages < 1 {
		maxStages = 1
	}
	if maxStages > 3 {
		maxStages = 3
	}
	for _, name := range components {
		if _, err := New(name); err != nil {
			return nil, err
		}
	}
	var specs []string
	var build func(prefix []string)
	build = func(prefix []string) {
		if len(prefix) > 0 {
			spec := prefix[0]
			for _, p := range prefix[1:] {
				spec += "-" + p
			}
			specs = append(specs, spec)
		}
		if len(prefix) == maxStages {
			return
		}
		for _, c := range components {
			if len(prefix) > 0 && prefix[len(prefix)-1] == c {
				continue // immediate repeats are never useful
			}
			// HF is only useful as the first stage (entropy coding output
			// is incompressible by a second entropy pass).
			if c == "HF" && len(prefix) > 0 {
				continue
			}
			build(append(prefix, c))
		}
	}
	build(nil)

	results := make([]SearchResult, 0, len(specs))
	for _, spec := range specs {
		p := MustParse(spec)
		ctx.Reset()
		t0 := time.Now()
		enc, err := p.EncodeCtx(ctx, dev, sample)
		if err != nil {
			return nil, fmt.Errorf("lccodec: search %s: %w", spec, err)
		}
		encLen := len(enc)
		dec, err := p.DecodeCtx(ctx, dev, enc)
		secs := time.Since(t0).Seconds()
		if err != nil || !bytes.Equal(dec, sample) {
			return nil, fmt.Errorf("lccodec: search %s: round trip failed: %v", spec, err)
		}
		results = append(results, SearchResult{
			Spec:    spec,
			Ratio:   float64(len(sample)) / float64(encLen),
			Seconds: secs,
		})
	}
	ctx.Reset()
	sort.Slice(results, func(i, j int) bool { return results[i].Ratio > results[j].Ratio })
	// Pareto: no other pipeline is both faster and higher-ratio.
	for i := range results {
		dominated := false
		for j := range results {
			if results[j].Ratio > results[i].Ratio && results[j].Seconds < results[i].Seconds {
				dominated = true
				break
			}
		}
		results[i].Pareto = !dominated
	}
	return results, nil
}
