package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare applies.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two directories of -o result files (A, the baseline,
// and B) and prints, per workload and gated metric, each side's median and
// quartiles and a verdict: better or worse when B's median moved past the
// metric's bound, same when it did not, and unresolved when either side's
// spread (quartile distance over median) is wider than the bound — unless
// every B run beats, or trails, every A run. It exits 1 on any "worse".
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("spec", "", "BENCHMARK.json with the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A/ B/")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRuns(fl.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(fl.Arg(1)); err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

func loadSpec(path string) (*benchmarkSpec, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var spec benchmarkSpec
	var err error
	for _, p := range paths {
		if err = readJSON(p, &spec); err == nil {
			return &spec, nil
		}
	}
	return nil, err
}

// loadRuns collects every untraced result in dir's *.json files as
// workload → metric → values, one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: %w", dir, fs.ErrNotExist)
	}
	runs := map[string]map[string][]float64{}
	for _, f := range files {
		var rf runFile
		if err := readJSON(f, &rf); err != nil {
			return nil, err
		}
		if rf.Trace {
			continue
		}
		for _, r := range rf.Results {
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
			}
			runs[r.Workload]["failed"] = append(runs[r.Workload]["failed"], float64(r.Failed))
		}
	}
	if len(runs) == 0 {
		return nil, errors.New(dir + ": no untraced results")
	}
	return runs, nil
}

func printComparison(w io.Writer, spec *benchmarkSpec, a, b map[string]map[string][]float64) int {
	names := make([]string, 0, len(a))
	for n := range a {
		if b[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-13s %-16s %-8s %5s  %-32s %-32s %8s  %s\n",
		"workload", "metric", "unit", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, change := verdict(av, bv, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-16s %-8s %5.3g  %-32s %-32s %+7.2f%%  %s\n",
				wl, m.Name, m.Unit, m.Bound, summary(av), summary(bv), 100*change, v)
		}
		if sum(b[wl]["failed"]) > 0 {
			fmt.Fprintf(w, "%-13s B has %g failed ops\n", wl, sum(b[wl]["failed"]))
			code = 1
		}
	}
	return code
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

// verdict compares B against the baseline A. change is B's median relative
// to A's, signed so that positive is better.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	change := 0.0
	if am != 0 {
		change = sign * (bm - am) / am
	}
	spread := 0.0
	if am != 0 && bm != 0 {
		spread = max((aq3-aq1)/am, (bq3-bq1)/bm)
	}
	if spread > bound {
		switch {
		case allBetter(b, a, sign):
			return "better", change
		case allBetter(a, b, sign):
			return "worse", change
		}
		return "unresolved", change
	}
	switch {
	case change < -bound:
		return "worse", change
	case change > bound:
		return "better", change
	}
	return "same", change
}

// allBetter reports whether every x beats every y in the metric's direction.
func allBetter(x, y []float64, sign float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if sign*(xv-yv) <= 0 {
				return false
			}
		}
	}
	return true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
