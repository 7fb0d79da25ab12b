// Command cuszhi is the command-line front end of the cuSZ-Hi
// reproduction: it compresses and decompresses raw little-endian float32
// files, and can synthesize the benchmark datasets.
//
//	cuszhi compress   -i data.f32 -o data.cszh -dims 256x384x384 -eb 1e-3 [-mode hi-cr] [-abs] [-chunk 32] [-stream] [-auto-policy P]
//	cuszhi decompress -i data.cszh -o recon.f32 [-stream] [-planes lo:hi]
//	cuszhi gen        -dataset miranda -o data.f32 [-dims 64x96x96] [-seed 1]
//	cuszhi info       -i data.cszh
//
// Modes: hi-cr (default), hi-tp, cusz-i, cusz-ib, cusz-l, fzgpu, szp,
// szx, auto. The backend modes (fzgpu, szp, szx) dispatch through the
// codec registry and always emit format-v5 containers — single-chunk
// unless -chunk/-stream shards the field.
//
// -chunk N shards the field into slabs of N planes compressed in parallel
// into a seekable chunked container — format v4 for the assemblies, v5 for
// the backends and auto — whose chunk-index footer lets `decompress
// -planes lo:hi` extract a plane range while reading only the covering
// shards; -stream writes the same container through the streaming
// writer/reader, so memory stays bounded by the chunk size rather than the
// field size. With -mode auto and chunking (or
// -stream), every shard is compressed by whichever codec the estimator
// cascade scores best on a sample of it — the candidates span the
// assemblies and the backend codecs — a heterogeneous format-v5 container;
// -auto-policy picks the ranking rule (best-ratio, throughput, or
// ratio-floor:F), and `info` prints the resulting per-chunk codec
// histogram and per-chunk compression ratios.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "scrub":
		// scrub has three-way exit semantics (0 clean / 1 damaged / 2
		// unreadable), so it reports and exits on its own.
		os.Exit(cmdScrub(os.Args[2:]))
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuszhi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cuszhi compress   -i data.f32 -o data.cszh -dims ZxYxX -eb 1e-3 [-mode hi-cr] [-abs] [-chunk N] [-stream] [-auto-policy P]
  cuszhi decompress -i data.cszh -o recon.f32 [-stream] [-planes lo:hi]
  cuszhi gen        -dataset NAME -o data.f32 [-dims ZxYxX] [-seed N] [-full]
  cuszhi info       -i data.cszh
  cuszhi append     -store data.cszh -i more.f32 [-mode hi-cr]
  cuszhi repair     -i data.cszh [-dry-run]
  cuszhi scrub      -i data.cszh [-json] [-retry N]`)
	os.Exit(2)
}

func parseDims(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -dims")
	}
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == 'x' || r == 'X' || r == ',' })
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dims %q", s)
		}
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("bad dims %q", s)
	}
	return dims, nil
}

func readF32(path string) ([]float32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 4", path, len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// writeFileAtomic writes path via a temp file in the same directory,
// renaming into place only when fn succeeds, so a failed run never
// destroys an existing output.
func writeFileAtomic(path string, fn func(io.Writer) error) error {
	of, err := os.CreateTemp(filepath.Dir(path), ".cuszhi-*")
	if err != nil {
		return err
	}
	tmp := of.Name()
	err = fn(of)
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func writeF32(path string, data []float32) error {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("i", "", "input raw float32 file")
	out := fs.String("o", "", "output compressed file")
	dimsStr := fs.String("dims", "", "dims, slowest first, e.g. 256x384x384")
	eb := fs.Float64("eb", 1e-3, "error bound")
	abs := fs.Bool("abs", false, "treat -eb as absolute instead of value-range-relative")
	mode := fs.String("mode", string(cuszhi.ModeCR), "compressor mode")
	chunk := fs.Int("chunk", 0, "planes per chunk; >0 writes a chunked container (v4; v5 for backend and auto modes) compressed in parallel")
	streaming := fs.Bool("stream", false, "pipe the file through the streaming writer (bounded memory; implies -chunk)")
	policy := fs.String("auto-policy", "", "auto-mode selection policy: best-ratio, throughput, or ratio-floor:F (requires -mode auto)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -i and -o are required")
	}
	if *policy != "" && cuszhi.Mode(*mode) != cuszhi.ModeAuto {
		return fmt.Errorf("compress: -auto-policy requires -mode auto (got -mode %s)", *mode)
	}
	dims, err := parseDims(*dimsStr)
	if err != nil {
		return err
	}
	if *streaming {
		return compressStream(*in, *out, dims, *eb, *abs, cuszhi.Mode(*mode), *chunk, *policy)
	}
	data, err := readF32(*in)
	if err != nil {
		return err
	}
	copts := []cuszhi.Option{}
	if *chunk > 0 {
		copts = append(copts, cuszhi.WithChunkPlanes(*chunk))
	}
	if *policy != "" {
		copts = append(copts, cuszhi.WithAutoPolicy(*policy))
	}
	c, err := cuszhi.New(cuszhi.Mode(*mode), copts...)
	if err != nil {
		return err
	}
	var blob []byte
	if *abs {
		blob, err = c.CompressAbs(data, dims, *eb)
	} else {
		blob, err = c.Compress(data, dims, *eb)
	}
	if err != nil {
		return err
	}
	if err := writeFileAtomic(*out, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (CR %.2f, %.3f bits/val, mode %s)\n",
		*in, 4*len(data), len(blob), metrics.CR(4*len(data), len(blob)),
		metrics.BitRate(len(data), len(blob)), *mode)
	return nil
}

func compressStream(in, out string, dims []int, eb float64, abs bool, mode cuszhi.Mode, chunk int, policy string) error {
	// Reject a bad mode or policy before the output file is truncated.
	// -mode auto streams as a format-v5 container: the estimator cascade
	// scores each shard's candidates inside its worker, -auto-policy ranks
	// them, and the winner alone compresses the shard.
	if _, err := cuszhi.New(mode); err != nil {
		return err
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		return fmt.Errorf("compress: invalid error bound %v", eb)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	var n int64
	opts := []stream.Option{stream.WithMode(mode)}
	if chunk > 0 {
		opts = append(opts, stream.WithChunkPlanes(chunk))
	}
	if policy != "" {
		opts = append(opts, stream.WithAutoPolicy(policy))
	}
	if !abs {
		// Relative bounds stream as a format-v3 container: each shard's
		// absolute bound derives from its own value range, so no pre-pass
		// over the file is needed.
		opts = append(opts, stream.WithRelativeEB())
	}
	err = writeFileAtomic(out, func(of io.Writer) error {
		w, err := stream.NewWriter(of, dims, eb, opts...)
		if err != nil {
			return err
		}
		n, err = io.Copy(w, f)
		if cerr := w.Close(); err == nil { // always Close: releases the worker pool
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (CR %.2f, %.3f bits/val, mode %s, streamed)\n",
		in, n, st.Size(), metrics.CR(int(n), int(st.Size())),
		metrics.BitRate(int(n)/4, int(st.Size())), mode)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("i", "", "input compressed file")
	out := fs.String("o", "", "output raw float32 file")
	streaming := fs.Bool("stream", false, "decode chunk-by-chunk through the streaming reader (bounded memory)")
	planes := fs.String("planes", "", "decode only planes lo:hi along the slowest dim (random access via the chunk index)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -i and -o are required")
	}
	if *planes != "" {
		if *streaming {
			return fmt.Errorf("decompress: -planes is random access; drop -stream")
		}
		return decompressPlanes(*in, *out, *planes)
	}
	if *streaming {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := stream.NewReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			return err
		}
		defer r.Close()
		var n int64
		if err := writeFileAtomic(*out, func(of io.Writer) error {
			var err error
			n, err = io.Copy(of, r)
			return err
		}); err != nil {
			return err
		}
		fmt.Printf("%s: %d values, dims %v (streamed)\n", *out, n/4, r.Dims())
		return nil
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	data, dims, err := cuszhi.Decompress(blob)
	if err != nil {
		return err
	}
	if err := writeF32(*out, data); err != nil {
		return err
	}
	fmt.Printf("%s: %d values, dims %v\n", *out, len(data), dims)
	return nil
}

// parsePlaneRange parses a "lo:hi" plane range (half-open, lo < hi).
func parsePlaneRange(s string) (lo, hi int, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("bad plane range %q (want lo:hi)", s)
	}
	lo, err = strconv.Atoi(s[:i])
	if err == nil {
		hi, err = strconv.Atoi(s[i+1:])
	}
	if err != nil || lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("bad plane range %q (want lo:hi with 0 <= lo < hi)", s)
	}
	return lo, hi, nil
}

// decompressPlanes extracts planes [lo, hi) through the random-access
// reader: on a seekable (v4) container only the covering shards are read
// and decoded; older formats fall back to a scan-built index.
func decompressPlanes(in, out, spec string) error {
	lo, hi, err := parsePlaneRange(spec)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	r, err := stream.OpenReaderAt(f, st.Size())
	if err != nil {
		return err
	}
	vals, err := r.ReadPlanes(nil, lo, hi)
	if err != nil {
		return err
	}
	if err := writeF32(out, vals); err != nil {
		return err
	}
	fmt.Printf("%s: planes %d:%d of dims %v (%d values, %d of %d chunks read)\n",
		out, lo, hi, r.Dims(), len(vals), r.CoveringChunks(lo, hi), r.NumChunks())
	return nil
}

// cmdAppend grows an existing chunked store with more planes of raw
// float32 data. Opening repairs first (any torn tail from a crashed
// writer is truncated at the last CRC-valid frame boundary), and Close
// reseals the store — header and chunk-index footer rewritten and
// fsynced — around the old and new chunks together.
func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	store := fs.String("store", "", "existing chunked container to grow")
	in := fs.String("i", "", "raw float32 file of whole planes to append")
	mode := fs.String("mode", "", "compressor mode for the new chunks (default: continue the store's)")
	fs.Parse(args)
	if *store == "" || *in == "" {
		return fmt.Errorf("append: -store and -i are required")
	}
	src, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	f, err := os.OpenFile(*store, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var opts []stream.Option
	if *mode != "" {
		opts = append(opts, stream.WithMode(cuszhi.Mode(*mode)))
	}
	w, err := stream.OpenAppend(f, opts...)
	if err != nil {
		return err
	}
	before := w.Planes()
	n, err := io.Copy(w, bufio.NewReaderSize(src, 1<<16))
	if cerr := w.Close(); err == nil { // always Close: releases the worker pool
		err = cerr
	}
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: +%d bytes, planes %d -> %d (%d bytes total)\n",
		*store, n, before, w.Planes(), st.Size())
	return nil
}

// cmdRepair reseals a store a crashed writer left torn: everything past
// the last CRC-valid frame boundary is truncated and the header/footer are
// rewritten to cover exactly the recovered chunks. -dry-run only reports.
func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	in := fs.String("i", "", "chunked container to repair")
	dry := fs.Bool("dry-run", false, "report what repair would do without modifying the file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("repair: -i is required")
	}
	flags := os.O_RDWR
	if *dry {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(*in, flags, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var rec *core.RecoveryInfo
	if *dry {
		rec, err = stream.CheckStore(f)
	} else {
		rec, err = stream.Repair(f)
	}
	if rec != nil {
		action := "repaired:"
		if *dry {
			action = "would repair:"
		}
		if rec.Sealed() {
			action = "sealed:"
		}
		fmt.Printf("%s: %s %d chunks, %d planes valid; %d trailing bytes dropped\n",
			*in, action, len(rec.Entries), rec.Planes, rec.TailBytes())
	}
	return err
}

// scrubJSON is the -json rendering of a stream.ScrubReport: errors become
// strings so the report round-trips through any JSON consumer.
type scrubJSON struct {
	File      string           `json:"file"`
	Clean     bool             `json:"clean"`
	Version   int              `json:"version"`
	SizeBytes int64            `json:"size_bytes"`
	Chunks    int              `json:"chunks"`
	Verified  int              `json:"verified"`
	Damaged   []scrubChunkJSON `json:"damaged,omitempty"`
	FooterErr string           `json:"footer_error,omitempty"`
	HeaderErr string           `json:"header_error,omitempty"`
}

type scrubChunkJSON struct {
	Chunk    int    `json:"chunk"`
	Offset   int64  `json:"offset"`
	PlaneOff int    `json:"plane_off"`
	Planes   int    `json:"planes"`
	Error    string `json:"error"`
}

// cmdScrub deep-verifies a sealed store without decoding it to floats:
// every frame CRC, the footer CRC, frame-vs-footer cross-checks, and
// header consistency. Exit code 0 = clean, 1 = damage found (localized per
// chunk in the output), 2 = the file is not a scrubbable container.
func cmdScrub(args []string) int {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	in := fs.String("i", "", "sealed chunked container to verify")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	retry := fs.Int("retry", 0, "retry transient I/O up to N attempts per read")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "cuszhi: scrub: -i is required")
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuszhi: scrub:", err)
		return 2
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cuszhi: scrub:", err)
		return 2
	}
	var opts []stream.Option
	if *retry > 1 {
		opts = append(opts, stream.WithRetry(*retry, 10*time.Millisecond))
	}
	rep, err := stream.Scrub(f, st.Size(), opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cuszhi: scrub: %s: %v\n", *in, err)
		return 2
	}
	if *jsonOut {
		out := scrubJSON{
			File: *in, Clean: rep.Clean(), Version: rep.Version,
			SizeBytes: rep.SizeBytes, Chunks: rep.Chunks, Verified: rep.Verified,
		}
		for _, d := range rep.Damaged {
			out.Damaged = append(out.Damaged, scrubChunkJSON{
				Chunk: d.Chunk, Offset: d.Offset, PlaneOff: d.PlaneOff,
				Planes: d.Planes, Error: d.Err.Error()})
		}
		if rep.FooterErr != nil {
			out.FooterErr = rep.FooterErr.Error()
		}
		if rep.HeaderErr != nil {
			out.HeaderErr = rep.HeaderErr.Error()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		fmt.Printf("%s: %s\n", *in, rep.Summary())
	}
	if rep.Clean() {
		return 0
	}
	return 1
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "", "dataset name: "+strings.Join(datagen.Names(), ", "))
	out := fs.String("o", "", "output raw float32 file")
	dimsStr := fs.String("dims", "", "override dims (optional)")
	seed := fs.Int64("seed", 1, "realization seed")
	full := fs.Bool("full", false, "paper-sized dims")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("gen: -dataset and -o are required")
	}
	var dims []int
	var err error
	if *dimsStr != "" {
		dims, err = parseDims(*dimsStr)
		if err != nil {
			return err
		}
	} else {
		dims, err = datagen.DefaultDims(*name, *full)
		if err != nil {
			return err
		}
	}
	f, err := datagen.Generate(*name, dims, *seed)
	if err != nil {
		return err
	}
	if err := writeF32(*out, f.Data); err != nil {
		return err
	}
	fmt.Printf("%s: %s %v (%d values, %.1f MiB)\n", *out, *name, f.Dims, f.Len(), float64(f.SizeBytes())/(1<<20))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "compressed file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -i is required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	hdr, err := cuszhi.Inspect(blob)
	if err != nil {
		return err
	}
	data, dims, err := cuszhi.Decompress(blob)
	if err != nil {
		return err
	}
	lo, hi, rng := metrics.Range(data)
	fmt.Printf("file:   %s (%d bytes, format v%d)\n", *in, len(blob), hdr.Version)
	if hdr.NumChunks > 0 {
		fmt.Printf("chunks: %d (%d planes each)\n", hdr.NumChunks, hdr.ChunkPlanes)
	}
	if len(hdr.ChunkCodecs) > 0 {
		// Heterogeneous (v5) container: per-chunk codec histogram, read
		// from the chunk-index footer without touching any payload.
		names := make([]string, 0, len(hdr.ChunkCodecs))
		for name := range hdr.ChunkCodecs {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s×%d", name, hdr.ChunkCodecs[name]))
		}
		kind := "per-chunk"
		if len(names) > 1 {
			kind = "per-chunk adaptive"
		}
		fmt.Printf("codecs: %s (%s)\n", strings.Join(parts, " "), kind)
	}
	if hdr.HasIndex {
		fmt.Printf("index:  chunk-index footer (seekable; decompress -planes lo:hi)\n")
	}
	if len(hdr.ChunkCRs) > 0 {
		// Per-chunk achieved ratios, from the index footer's frame extents:
		// on adaptive containers this is where the selection's wins and
		// losses show up chunk by chunk.
		parts := make([]string, len(hdr.ChunkCRs))
		for i, cr := range hdr.ChunkCRs {
			parts[i] = fmt.Sprintf("%.1f", cr)
		}
		fmt.Printf("chunk CRs: %s\n", strings.Join(parts, " "))
	}
	fmt.Printf("dims:   %v (%d values)\n", dims, len(data))
	ebKind := "absolute"
	if hdr.RelativeEB {
		ebKind = "value-range relative, per shard"
	}
	fmt.Printf("eb:     %g (%s)\n", hdr.AbsErrorEB, ebKind)
	fmt.Printf("ratio:  %.2f (%.3f bits/val)\n", metrics.CR(4*len(data), len(blob)), metrics.BitRate(len(data), len(blob)))
	fmt.Printf("range:  [%g, %g] (span %g)\n", lo, hi, rng)
	return nil
}
