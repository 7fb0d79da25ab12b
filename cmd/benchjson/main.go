// Command benchjson runs the repository's core benchmarks in-process and
// writes the results as machine-readable JSON (BENCH_core.json), so the
// performance trajectory stays comparable across PRs and CI runs.
//
//	benchjson [-o BENCH_core.json] [-quick] [-baseline old.json]
//
// The suite mirrors the root `go test -bench` hot-path benchmarks: the
// Huffman entropy stage, one-shot compress/decompress through a reused
// codec context, the serial-vs-sharded chunked pipeline (the
// BenchmarkStreamChunked shapes), and the stream/automode entries — a
// mixed smooth/noisy field compressed with per-chunk estimator-driven
// codec selection (one entry per selection policy: best-ratio, throughput,
// ratio-floor) vs the best single fixed mode, reporting ratio alongside
// throughput. -quick shrinks the field sizes for CI smoke runs; -baseline
// embeds a previous run and reports speedups against it, keeping the
// cross-PR trajectory in one file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/interp"
	"repro/internal/lccodec"
	"repro/internal/lorenzo"
	"repro/internal/metrics"
)

// Result is one benchmark measurement.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_s"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	N        int     `json:"iterations"`
	// Ratio is the compression ratio the benchmarked path achieves on its
	// input (set for the stream/automode entries, where ratio — not just
	// throughput — is what auto mode is traded against).
	Ratio float64 `json:"ratio,omitempty"`
	// Against -baseline (0 when the baseline lacks this benchmark):
	BaselineMBPerSec float64 `json:"baseline_mb_per_s,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
}

// Report is the BENCH_core.json document.
type Report struct {
	GeneratedUnix  int64    `json:"generated_unix"`
	GoVersion      string   `json:"go_version"`
	GOOS           string   `json:"goos"`
	GOARCH         string   `json:"goarch"`
	CPUs           int      `json:"cpus"`
	Quick          bool     `json:"quick"`
	Benchmarks     []Result `json:"benchmarks"`
	BaselineSource string   `json:"baseline_source,omitempty"`
}

type bench struct {
	name  string
	bytes int64
	ratio float64 // compression ratio of the benchmarked path, if meaningful
	run   func(b *testing.B)
}

func quantLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(128 + rng.NormFloat64()*3)
	}
	return out
}

// skewedBytes is a zero-heavy stream like hi-cr's level-ordered codes:
// about 90% one symbol, about 1.4 bits per symbol once Huffman-coded.
func skewedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = 128
		if rng.Intn(10) == 0 {
			out[i] = byte(128 + rng.NormFloat64()*5)
		}
	}
	return out
}

// chunkedSpec resolves a mode (and auto-mode policy) into the encode spec
// of a version-ver chunked container (0: the mode's native layout) under
// the absolute bound eb.
func chunkedSpec(mode, policy string, ver int, eb float64) (core.EncodeSpec, error) {
	spec, err := core.ResolveEncodeSpec(mode, policy, ver)
	spec.EB = eb
	return spec, err
}

func suite(quick bool) ([]bench, error) {
	dev := gpusim.New(0)
	dev1 := gpusim.New(1)
	dev4 := gpusim.New(4)

	hfN := 1 << 22
	oneShot := []int{64, 64, 64}
	streamDims := []int{256, 256, 256}
	if quick {
		hfN = 1 << 19
		streamDims = []int{64, 64, 64}
	}

	hfData := quantLike(hfN, 1)
	hfEnc, err := huffman.EncodeBytesCtx(nil, dev, hfData, nil)
	if err != nil {
		return nil, err
	}
	skewData := skewedBytes(hfN, 3)
	skewFreq := make([]int64, 256)
	for _, c := range skewData {
		skewFreq[c]++
	}
	skewEnc, err := huffman.EncodeBytesCtx(nil, dev, skewData, nil)
	if err != nil {
		return nil, err
	}
	symData := make([]uint16, hfN)
	symFreq := make([]int64, 1026)
	rng := rand.New(rand.NewSource(5))
	for i := range symData {
		s := uint16(513 + int(rng.NormFloat64()*3))
		symData[i] = s
		symFreq[s]++
	}
	symEnc, err := huffman.EncodeCtx(nil, dev, symData, 1026, nil)
	if err != nil {
		return nil, err
	}

	osField := make([]float32, oneShot[0]*oneShot[1]*oneShot[2])
	for i := range osField {
		osField[i] = float32(i%23) + 0.5*float32(i%7)
	}
	osOpts := core.CuszL()
	osCtx := arena.NewCtx()
	osBlob, err := core.CompressCtx(osCtx, dev1, osField, oneShot, 0.01, osOpts)
	if err != nil {
		return nil, err
	}

	sField, err := datagen.Generate("jhtdb", streamDims, 1)
	if err != nil {
		return nil, err
	}
	sEB := metrics.AbsEB(sField.Data, 1e-2)
	sOpts := core.HiTP()
	sBlobSerial, err := core.CompressCtx(nil, dev, sField.Data, sField.Dims, sEB, sOpts)
	if err != nil {
		return nil, err
	}
	// The sharded entries keep measuring plain v2 chunks, as they always
	// have: no range scan, no index footer.
	sSpec, err := chunkedSpec("hi-tp", "", 2, sEB)
	if err != nil {
		return nil, err
	}
	sBlobChunked, err := core.CompressChunked(dev, sField.Data, sField.Dims, 32, sSpec)
	if err != nil {
		return nil, err
	}

	// A seekable (v4) container of the same field for the random-access
	// benchmark: reading the middle 32 planes through the chunk index vs
	// decoding the whole container sequentially to reach them.
	var v4buf bytes.Buffer
	sw, err := stream.NewWriter(&v4buf, sField.Dims, sEB,
		stream.WithMode(cuszhi.ModeTP), stream.WithChunkPlanes(32), stream.WithWorkers(4))
	if err != nil {
		return nil, err
	}
	if err := sw.WriteValues(sField.Data); err != nil {
		return nil, err
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	v4Blob := v4buf.Bytes()
	planeLo := sField.Dims[0]/2 - 16
	planeHi := planeLo + 32
	winPS := sField.Len() / sField.Dims[0] // elements per plane
	ra, err := stream.OpenReaderAt(bytes.NewReader(v4Blob), int64(len(v4Blob)), stream.WithWorkers(4))
	if err != nil {
		return nil, err
	}

	// A mixed-character field for the auto-mode benchmark: the first half
	// is smooth and separable (interpolation-friendly), the second half is
	// small-scale noise (Lorenzo territory), so per-chunk codec selection
	// has a real decision to make. Auto mode is compared against the best
	// single fixed mode on both ratio and throughput.
	mixDims := streamDims
	mixPS := mixDims[1] * mixDims[2]
	mix := make([]float32, mixDims[0]*mixPS)
	mrng := rand.New(rand.NewSource(7))
	for z := 0; z < mixDims[0]; z++ {
		for i := 0; i < mixPS; i++ {
			if z < mixDims[0]/2 {
				y, x := i/mixDims[2], i%mixDims[2]
				mix[z*mixPS+i] = float32(z)*0.5 + float32(y)*0.25 + float32(x)*0.125
			} else {
				mix[z*mixPS+i] = float32(mrng.NormFloat64() * 10)
			}
		}
	}
	mixEB := metrics.AbsEB(mix, 1e-2)
	var bestFixed core.EncodeSpec
	bestFixedLen := -1
	for _, name := range []string{"hi-cr", "hi-tp", "cusz-l"} {
		spec, err := chunkedSpec(name, "", 2, mixEB)
		if err != nil {
			return nil, err
		}
		blob, err := core.CompressChunked(dev4, mix, mixDims, 32, spec)
		if err != nil {
			return nil, err
		}
		if bestFixedLen < 0 || len(blob) < bestFixedLen {
			bestFixedLen = len(blob)
			bestFixed = spec
		}
	}
	autoSpec, err := chunkedSpec("auto", "", 0, mixEB)
	if err != nil {
		return nil, err
	}
	autoBlob, err := core.CompressChunked(dev4, mix, mixDims, 32, autoSpec)
	if err != nil {
		return nil, err
	}
	mixBytes := int64(4 * len(mix))
	autoRatio := float64(mixBytes) / float64(len(autoBlob))
	fixedRatio := float64(mixBytes) / float64(bestFixedLen)

	// The non-default selection policies on the same field: throughput may
	// trade a little ratio for a faster codec, ratio-floor takes the fastest
	// codec that still clears the floor.
	thrSpec, err := chunkedSpec("auto", "throughput", 0, mixEB)
	if err != nil {
		return nil, err
	}
	rfSpec, err := chunkedSpec("auto", "ratio-floor:8", 0, mixEB)
	if err != nil {
		return nil, err
	}
	thrBlob, err := core.CompressChunked(dev4, mix, mixDims, 32, thrSpec)
	if err != nil {
		return nil, err
	}
	rfBlob, err := core.CompressChunked(dev4, mix, mixDims, 32, rfSpec)
	if err != nil {
		return nil, err
	}
	thrRatio := float64(mixBytes) / float64(len(thrBlob))
	rfRatio := float64(mixBytes) / float64(len(rfBlob))

	// Per-backend chunk codecs (format v5, fixed codec per container) on
	// the same streaming field: throughput and ratio for each registered
	// backend next to the assembly numbers above.
	type backendBench struct {
		name string
		blob []byte
		spec core.EncodeSpec
	}
	var backends []backendBench
	for _, name := range []string{"fzgpu", "szp", "szx"} {
		spec, err := chunkedSpec(name, "", 0, sEB)
		if err != nil {
			return nil, err
		}
		blob, err := core.CompressChunked(dev4, sField.Data, sField.Dims, 32, spec)
		if err != nil {
			return nil, err
		}
		backends = append(backends, backendBench{name: name, blob: blob, spec: spec})
	}

	// Per-kernel microbenchmarks over the batched hot loops, isolated from
	// container framing and entropy stages: the Lorenzo predict/quantize
	// sweep, one full interpolation-level pass set, and the zigzag/bitplane
	// packing pipeline (TCMS1-BIT1-RRE1) on quant-like bytes, plus the
	// interpolation reconstruction that decodes the level pass's output.
	kDims := []int{96, 96, 96}
	if quick {
		kDims = []int{48, 48, 48}
	}
	kField, err := datagen.Generate("jhtdb", kDims, 3)
	if err != nil {
		return nil, err
	}
	kEB := metrics.AbsEB(kField.Data, 1e-2)
	kCtx := arena.NewCtx()
	lzGrid := lorenzo.NewGrid(kDims)
	ipGrid := interp.NewGrid(kDims)
	ipCfg := interp.HiConfig()
	// The reconstruct entry decodes an owned Result, which kCtx.Reset
	// cannot clobber.
	ipRes, err := interp.CompressCtx(nil, dev1, kField.Data, ipGrid, ipCfg, kEB)
	if err != nil {
		return nil, err
	}
	bpData := quantLike(len(kField.Data), 9)
	bpPipe := lccodec.HiTP()

	benches := []bench{
		{"kernel/lorenzo-predict", int64(4 * len(kField.Data)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kCtx.Reset()
				if _, err := lorenzo.CompressCtx(kCtx, dev1, kField.Data, lzGrid, kEB); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kernel/interp-level", int64(4 * len(kField.Data)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kCtx.Reset()
				if _, err := interp.CompressCtx(kCtx, dev1, kField.Data, ipGrid, ipCfg, kEB); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kernel/interp-reconstruct", int64(4 * len(kField.Data)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kCtx.Reset()
				if _, err := interp.DecompressCtx(kCtx, dev1, ipRes, ipGrid, ipCfg, kEB); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kernel/bitplane-pack", int64(len(bpData)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kCtx.Reset()
				if _, err := bpPipe.EncodeCtx(kCtx, dev1, bpData); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, bb := range backends {
		bb := bb
		ratio := float64(sField.SizeBytes()) / float64(len(bb.blob))
		benches = append(benches,
			bench{"backend/" + bb.name + "/compress-4w", int64(sField.SizeBytes()), ratio, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.CompressChunked(dev4, sField.Data, sField.Dims, 32, bb.spec); err != nil {
						b.Fatal(err)
					}
				}
			}},
			bench{"backend/" + bb.name + "/decompress-4w", int64(sField.SizeBytes()), ratio, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.DecompressCtx(nil, dev4, bb.blob); err != nil {
						b.Fatal(err)
					}
				}
			}},
		)
	}

	return append(benches, []bench{
		{"stream/automode/compress-auto-estimator-4w", mixBytes, autoRatio, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev4, mix, mixDims, 32, autoSpec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/automode/compress-auto-throughput-4w", mixBytes, thrRatio, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev4, mix, mixDims, 32, thrSpec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/automode/compress-auto-ratio-floor-4w", mixBytes, rfRatio, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev4, mix, mixDims, 32, rfSpec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/automode/compress-best-fixed-4w", mixBytes, fixedRatio, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev4, mix, mixDims, 32, bestFixed); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/automode/decompress-4w", mixBytes, autoRatio, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.DecompressCtx(nil, dev4, autoBlob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/encode-bytes", int64(hfN), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := huffman.EncodeBytesCtx(nil, dev, hfData, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/decode-bytes", int64(hfN), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := huffman.DecodeBytesCtx(nil, dev, hfEnc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/encode-bytes-skewed", int64(hfN), 0, func(b *testing.B) {
			ctx := arena.NewCtx()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				if _, err := huffman.EncodeBytesCtx(ctx, dev, skewData, skewFreq); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/decode-bytes-skewed", int64(hfN), 0, func(b *testing.B) {
			ctx := arena.NewCtx()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				if _, err := huffman.DecodeBytesCtx(ctx, dev, skewEnc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/decode-symbols-ctx", int64(2 * hfN), 0, func(b *testing.B) {
			ctx := arena.NewCtx()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				if _, err := huffman.DecodeCtx(ctx, dev, symEnc); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"huffman/encode-symbols-fused", int64(2 * hfN), 0, func(b *testing.B) {
			ctx := arena.NewCtx()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				if _, err := huffman.EncodeCtx(ctx, dev, symData, 1026, symFreq); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"core/oneshot-cusz-l-64/compress-ctx", int64(4 * len(osField)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				osCtx.Reset()
				if _, err := core.CompressCtx(osCtx, dev1, osField, oneShot, 0.01, osOpts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"core/oneshot-cusz-l-64/decompress-ctx", int64(4 * len(osField)), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				osCtx.Reset()
				if _, _, err := core.DecompressCtx(osCtx, dev1, osBlob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/compress/serial", int64(sField.SizeBytes()), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressCtx(nil, dev1, sField.Data, sField.Dims, sEB, sOpts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/compress/sharded-4w", int64(sField.SizeBytes()), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev4, sField.Data, sField.Dims, 32, sSpec); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/decompress/serial", int64(sField.SizeBytes()), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.DecompressCtx(nil, dev1, sBlobSerial); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/decompress/sharded-4w", int64(sField.SizeBytes()), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.DecompressCtx(nil, dev4, sBlobChunked); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Random access: both sides deliver the same middle-32-plane
		// window, so MB/s compares time-to-window directly.
		{"stream/readplanes/middle32-v4", int64(4 * 32 * winPS), 0, func(b *testing.B) {
			var dst []float32
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = ra.ReadPlanes(dst, planeLo, planeHi); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"stream/readplanes/middle32-fulldecode", int64(4 * 32 * winPS), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recon, _, err := core.DecompressCtx(nil, dev4, v4Blob)
				if err != nil {
					b.Fatal(err)
				}
				_ = recon[planeLo*winPS : planeHi*winPS]
			}
		}},
	}...), nil
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output file")
	quick := flag.Bool("quick", false, "small field sizes for CI smoke runs")
	baseline := flag.String("baseline", "", "previous BENCH_core.json to compare against")
	flag.Parse()

	var base *Report
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base = &Report{}
		if err := json.Unmarshal(raw, base); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	benches, err := suite(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep := Report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Quick:         *quick,
	}
	if base != nil {
		rep.BaselineSource = fmt.Sprintf("%s (generated_unix %d)", *baseline, base.GeneratedUnix)
	}
	for _, bm := range benches {
		bytes := bm.bytes
		run := bm.run
		r := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			run(b)
		})
		res := Result{
			Name:     bm.name,
			NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			MBPerSec: float64(bytes) * float64(r.N) / r.T.Seconds() / 1e6,
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
			N:        r.N,
			Ratio:    bm.ratio,
		}
		if base != nil {
			for _, b := range base.Benchmarks {
				if b.Name == res.Name && b.MBPerSec > 0 {
					res.BaselineMBPerSec = b.MBPerSec
					res.Speedup = res.MBPerSec / b.MBPerSec
				}
			}
		}
		fmt.Printf("%-42s %12.0f ns/op %9.2f MB/s %7d allocs/op", res.Name, res.NsPerOp, res.MBPerSec, res.AllocsOp)
		if res.Ratio > 0 {
			fmt.Printf("  CR %.2f", res.Ratio)
		}
		if res.Speedup > 0 {
			fmt.Printf("  %+.1f%% vs baseline", (res.Speedup-1)*100)
		}
		fmt.Println()
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}
