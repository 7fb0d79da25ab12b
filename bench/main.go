// Command bench is the repository's end-to-end benchmark: a raw .f32 file
// in, a sealed store out through stream.Writer, and back again through
// stream.Reader and ReaderAt, with file I/O, framing and CRCs included and
// every output checked against its input.
//
// Run one workload, or all four in turn, from this directory:
//
//	go run . -workload cr-smooth -seed 1 -seconds 20
//	go run . -seed 1 -o results/a1.json
//	go run . -workload tp-turb -trace 1     # per-layer metrics + span file
//	go run . compare results/a results/b    # apply BENCHMARK.json bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string // "" runs every workload
	seed     int64
	seconds  float64
	trace    bool
	out      string // result file for compare
	quick    bool
	workDir  string // set-up files; one subdirectory per workload run
	traceDir string // span files
	child    string // internal: measure the workload prepared in this directory
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload to run (cr-smooth, tp-turb, auto-mixed, window-reads); empty runs all")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the generated inputs and window offsets")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	fs.StringVar(&c.out, "o", "", "also write the full results to this JSON file")
	fs.BoolVar(&c.quick, "quick", false, "tiny 64x32x32 fields and two ops per phase (smoke test)")
	fs.StringVar(&c.workDir, "workdir", filepath.Join(".bench_build", "work"), "directory for set-up files")
	fs.StringVar(&c.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "directory for span files")
	fs.StringVar(&c.child, "child", "", "internal: measure the workload prepared in this directory")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if c.seconds < 0 {
		return c, fmt.Errorf("-seconds must not be negative")
	}
	return c, nil
}

func (c config) size() size {
	if c.quick {
		return quickSize
	}
	return fullSize
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.child != "" {
		return childMain(cfg, stderr)
	}
	list := workloads
	if cfg.workload != "" {
		w, err := lookupWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		list = []workload{w}
	}
	start := time.Now()
	env := currentEnv()
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d workers=%d oversubscribed=%v cpu=%q go=%s commit=%s\n",
		env.Nproc, env.GOMAXPROCS, env.Workers, env.Oversubscribed, env.CPU, env.GoVersion, env.Commit)
	file := runFile{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: env}
	code := 0
	for _, w := range list {
		res, err := runWorkload(cfg, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		file.Results = append(file.Results, res)
		printResult(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	file.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stderr, "bench: total wall time %.1f s\n", file.WallS)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, file); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runWorkload sets the workload up, then measures it in a fresh child
// process, so heap, GC and peak-RSS state never carries over from set-up
// or from another workload.
func runWorkload(cfg config, w workload, stderr io.Writer) (*result, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Set-up runs several times and reports the median, so one slow
	// repetition does not read as a regression.
	reps := 3
	if cfg.trace || cfg.quick {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		s, err := setUp(w, cfg.size(), cfg.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", dir, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(boolInt(cfg.trace)), "-tracedir", cfg.traceDir}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	runErr := cmd.Run()
	var res result
	if err := readJSON(filepath.Join(dir, "result.json"), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("measuring: %w", runErr)
		}
		return nil, err
	}
	if cfg.trace {
		res.extra("setup_s", percentile(setups, 50), "s", len(setups))
	} else {
		res.add("setup_s", percentile(setups, 50), "s", len(setups))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.extra("peak_rss_mb", float64(ru.Maxrss)*1024/1e6, "MB", 1) // Maxrss is in KiB
	}
	return &res, nil
}

// setUp generates the workload's field and writes it as the raw input
// file, which then sits in the page cache for the measured phase.
func setUp(w workload, s size, seed int64, dir string) (float64, error) {
	t0 := time.Now()
	field, _, err := w.generate(s, seed)
	if err != nil {
		return 0, err
	}
	if err := writeRaw(filepath.Join(dir, "input.f32"), field); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func childMain(cfg config, stderr io.Writer) int {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := measure(cfg, w, cfg.child)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(cfg.child, "result.json"), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure loads the prepared input and runs the measured phase, or the
// traced one.
func measure(cfg config, w workload, dir string) (*result, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "input.f32"))
	if err != nil {
		return nil, err
	}
	dims := w.dims(cfg.size())
	field := decodeRaw(nil, buf)
	if len(field) != dims[0]*dims[1]*dims[2] {
		return nil, fmt.Errorf("input holds %d values, want %v", len(field), dims)
	}
	b := newBench(w, dir, field, dims)
	defer b.removeOutputs()
	res := &result{Workload: w.name, Seed: cfg.seed}
	if cfg.trace {
		err = b.traceRun(cfg, res)
	} else {
		err = b.measuredRun(cfg, res)
	}
	return res, err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Results.

// metric is one reported value. N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run. Metrics holds the gated end-to-end metrics,
// or the per-layer metrics of a traced run; Extra holds values reported
// for reading but not gated.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
}

func (r *result) add(name string, v float64, unit string, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: unit, N: n}
}

func (r *result) extra(name string, v float64, unit string, n int) {
	if r.Extra == nil {
		r.Extra = map[string]metric{}
	}
	r.Extra[name] = metric{Value: finite(v), Unit: unit, N: n}
}

// finite maps the infinities and NaNs of an empty sample (a rate over zero
// ops) to 0, which JSON can carry and which fails every bound.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

func (r *result) setTally(tl *tally) {
	r.Attempted, r.Failed, r.Errors = tl.attempted, tl.failed, tl.errs
	r.Correct = tl.failed == 0 && tl.attempted > 0
}

// runFile is what -o writes and compare reads.
type runFile struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Env     env       `json:"env"`
	WallS   float64   `json:"wall_s"`
	Results []*result `json:"results"`
}

// printResult prints a readable table, then the one-line JSON summary
// whose metrics are exactly the gated end-to-end metrics (or, traced, the
// per-layer metrics).
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s seed=%d attempted=%d failed=%d error_rate=%.4g\n", r.Workload, r.Seed, r.Attempted, r.Failed, errorRate(r))
	for _, e := range r.Errors {
		fmt.Fprintf(w, "#   error: %s\n", e)
	}
	for _, m := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "#   %-30s %14.6g %-8s n=%d\n", n, m[n].Value, m[n].Unit, m[n].N)
		}
	}
	type kv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]kv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]kv{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = kv{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(out))
}

func errorRate(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// env records where the numbers came from.
type env struct {
	Nproc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`
	CPU            string `json:"cpu"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	OS             string `json:"os"`
}

// workers is the width of every pool the benchmark drives: the library's
// default device, the Writer's and Reader's shard workers, and the window
// load generator all take GOMAXPROCS, which is nproc unless overridden.
func workers() int { return runtime.GOMAXPROCS(0) }

func currentEnv() env {
	e := env{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(),
		GoVersion: runtime.Version(), Commit: "unknown", OS: runtime.GOOS + "/" + runtime.GOARCH}
	e.Oversubscribed = e.Workers > e.Nproc
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
