package lccodec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arena"
)

func quantCodeLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(15) == 0 {
			out[i] = byte(128 + rng.NormFloat64()*6)
		} else {
			out[i] = 128
		}
	}
	return out
}

func TestSearchFindsFrontier(t *testing.T) {
	sample := quantCodeLike(1<<15, 1)
	results, err := SearchCtx(nil, dev, sample, []string{"HF", "RRE1", "TCMS1", "BIT1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 single-stage + (4 first * 3 second, minus HF-not-first rule):
	// HF can start but not follow; immediate repeats excluded.
	if len(results) < 10 {
		t.Fatalf("only %d pipelines evaluated", len(results))
	}
	// Sorted by ratio.
	for i := 1; i < len(results); i++ {
		if results[i].Ratio > results[i-1].Ratio {
			t.Fatal("results not sorted by ratio")
		}
	}
	// The top pipeline must be Pareto by construction.
	if !results[0].Pareto {
		t.Fatal("best-ratio pipeline not marked Pareto")
	}
	// At least one pipeline beats HF alone on run-heavy codes.
	var hfRatio float64
	for _, r := range results {
		if r.Spec == "HF" {
			hfRatio = r.Ratio
		}
	}
	if results[0].Ratio <= hfRatio {
		t.Fatalf("search found nothing better than HF (%.2f)", hfRatio)
	}
	// No HF in a non-leading position.
	for _, r := range results {
		if i := strings.Index(r.Spec, "-HF"); i >= 0 {
			t.Fatalf("pipeline %s has HF in a later stage", r.Spec)
		}
	}
}

func TestSearchValidatesComponents(t *testing.T) {
	if _, err := SearchCtx(nil, dev, []byte{1, 2, 3}, []string{"NOPE"}, 1); err == nil {
		t.Fatal("want error for unknown component")
	}
}

func TestSearchStageClamp(t *testing.T) {
	sample := quantCodeLike(1<<10, 2)
	results, err := SearchCtx(nil, dev, sample, []string{"RRE1", "RZE1"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if strings.Count(r.Spec, "-") > 2 {
			t.Fatalf("pipeline %s exceeds 3 stages", r.Spec)
		}
	}
}

// TestSearchCtxMatchesSearch: the context-threaded search must produce the
// same rankings and ratios as the allocating one, and a warm context must
// cut steady-state allocations dramatically (trial buffers come from the
// arena slots instead of per-candidate make calls).
func TestSearchCtxMatchesSearch(t *testing.T) {
	sample := quantCodeLike(1<<14, 4)
	comps := []string{"HF", "RRE1", "TCMS1", "BIT1"}
	want, err := SearchCtx(nil, dev, sample, comps, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := arena.NewCtx()
	got, err := SearchCtx(ctx, dev, sample, comps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Spec != want[i].Spec || got[i].Ratio != want[i].Ratio {
			t.Fatalf("result %d: %s %.3f, want %s %.3f",
				i, got[i].Spec, got[i].Ratio, want[i].Spec, want[i].Ratio)
		}
	}

	// Steady state: the warm context serves every candidate's trial
	// buffers; what remains is spec parsing and kernel-launch latches
	// (~150/op for these 14 pipelines). The ceiling catches any return to
	// per-candidate working-set allocation, which costs thousands.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SearchCtx(ctx, dev, sample, comps, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 250 {
		t.Fatalf("steady-state SearchCtx allocates %v/op, want <= 250", allocs)
	}
}

func TestSearchDefaultComponents(t *testing.T) {
	sample := quantCodeLike(1<<12, 3)
	results, err := SearchCtx(nil, dev, sample, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(DefaultSearchComponents) {
		t.Fatalf("%d single-stage results, want %d", len(results), len(DefaultSearchComponents))
	}
}
