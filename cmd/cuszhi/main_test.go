package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/cuszhi"
	"repro/cuszhi/stream"
)

func TestParseDims(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"256x384x384", []int{256, 384, 384}, true},
		{"100", []int{100}, true},
		{"8X9", []int{8, 9}, true},
		{"4,5,6", []int{4, 5, 6}, true},
		{"", nil, false},
		{"axb", nil, false},
		{"-4x5", nil, false},
		{"0x5", nil, false},
	} {
		got, err := parseDims(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("parseDims(%q): err=%v want ok=%v", tc.in, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Fatalf("parseDims(%q) = %v", tc.in, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("parseDims(%q) = %v", tc.in, got)
			}
		}
	}
}

func TestReadWriteF32(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.f32")
	data := []float32{0, 1.5, -2.25, float32(math.Pi)}
	if err := writeF32(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := readF32(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], data[i])
		}
	}
	// Misaligned file must error.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readF32(path); err == nil {
		t.Fatal("want alignment error")
	}
}

func TestEndToEndCommands(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	comp := filepath.Join(dir, "f.cszh")
	out := filepath.Join(dir, "recon.f32")

	if err := cmdGen([]string{"-dataset", "nyx", "-o", raw, "-dims", "16x24x24", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-i", raw, "-o", comp, "-dims", "16x24x24", "-eb", "1e-3", "-mode", "hi-tp"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{"-i", comp, "-o", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-i", comp}); err != nil {
		t.Fatal(err)
	}
	orig, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := readF32(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(recon) {
		t.Fatalf("len %d != %d", len(recon), len(orig))
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	eb := 1e-3 * float64(hi-lo)
	for i := range orig {
		if math.Abs(float64(orig[i])-float64(recon[i])) > eb*(1+1e-6) {
			t.Fatalf("bound violated at %d", i)
		}
	}
}

// TestEndToEndChunkedAndStreamed drives the -chunk and -stream flags:
// chunked compress / one-shot decompress, streamed compress / streamed
// decompress, and cross-combinations, all within the error bound.
func TestEndToEndChunkedAndStreamed(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	if err := cmdGen([]string{"-dataset", "miranda", "-o", raw, "-dims", "20x16x16", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	orig, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	eb := 1e-3 * float64(hi-lo)

	check := func(tag, path string) {
		t.Helper()
		recon, err := readF32(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != len(orig) {
			t.Fatalf("%s: len %d != %d", tag, len(recon), len(orig))
		}
		for i := range orig {
			if math.Abs(float64(orig[i])-float64(recon[i])) > eb*(1+1e-6) {
				t.Fatalf("%s: bound violated at %d", tag, i)
			}
		}
	}

	chunked := filepath.Join(dir, "chunked.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", chunked, "-dims", "20x16x16",
		"-eb", "1e-3", "-mode", "hi-tp", "-chunk", "6"}); err != nil {
		t.Fatal(err)
	}
	out1 := filepath.Join(dir, "r1.f32")
	if err := cmdDecompress([]string{"-i", chunked, "-o", out1}); err != nil {
		t.Fatal(err)
	}
	check("chunked->one-shot", out1)
	out2 := filepath.Join(dir, "r2.f32")
	if err := cmdDecompress([]string{"-i", chunked, "-o", out2, "-stream"}); err != nil {
		t.Fatal(err)
	}
	check("chunked->streamed", out2)
	if err := cmdInfo([]string{"-i", chunked}); err != nil {
		t.Fatal(err)
	}

	streamed := filepath.Join(dir, "streamed.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", streamed, "-dims", "20x16x16",
		"-eb", "1e-3", "-mode", "hi-tp", "-stream", "-chunk", "8"}); err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "r3.f32")
	if err := cmdDecompress([]string{"-i", streamed, "-o", out3}); err != nil {
		t.Fatal(err)
	}
	check("streamed->one-shot", out3)

	// A v1 blob reads fine through the streaming decoder.
	oneshot := filepath.Join(dir, "oneshot.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", oneshot, "-dims", "20x16x16",
		"-eb", "1e-3", "-mode", "hi-tp"}); err != nil {
		t.Fatal(err)
	}
	out4 := filepath.Join(dir, "r4.f32")
	if err := cmdDecompress([]string{"-i", oneshot, "-o", out4, "-stream"}); err != nil {
		t.Fatal(err)
	}
	check("one-shot->streamed", out4)
}

// TestPlaneRangeExtraction drives `decompress -planes lo:hi` against the
// seekable container `-stream` now writes, and against an old-style v2
// container via the scan-built fallback index.
func TestPlaneRangeExtraction(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	if err := cmdGen([]string{"-dataset", "jhtdb", "-o", raw, "-dims", "24x12x12", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}

	comp := filepath.Join(dir, "f.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", comp, "-dims", "24x12x12",
		"-eb", "1e-3", "-mode", "hi-tp", "-stream", "-chunk", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-i", comp}); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, "full.f32")
	if err := cmdDecompress([]string{"-i", comp, "-o", full}); err != nil {
		t.Fatal(err)
	}
	fullVals, err := readF32(full)
	if err != nil {
		t.Fatal(err)
	}

	ps := 12 * 12
	part := filepath.Join(dir, "part.f32")
	if err := cmdDecompress([]string{"-i", comp, "-o", part, "-planes", "7:13"}); err != nil {
		t.Fatal(err)
	}
	partVals, err := readF32(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(partVals) != 6*ps {
		t.Fatalf("extracted %d values, want %d", len(partVals), 6*ps)
	}
	for i := range partVals {
		if partVals[i] != fullVals[7*ps+i] {
			t.Fatalf("plane extraction diverges from full decode at %d", i)
		}
	}

	// Old chunked (v2) containers work through the fallback index.
	rawVals, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	v2Blob, err := stream.CompressAbs(rawVals, []int{24, 12, 12}, cuszhi.AbsEB(rawVals, 1e-3),
		stream.WithMode(cuszhi.ModeTP), stream.WithChunkPlanes(5), stream.WithIndex(false))
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.cszh")
	if err := os.WriteFile(v2, v2Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	part2 := filepath.Join(dir, "part2.f32")
	if err := cmdDecompress([]string{"-i", v2, "-o", part2, "-planes", "0:5"}); err != nil {
		t.Fatal(err)
	}
	if vals, err := readF32(part2); err != nil || len(vals) != 5*ps {
		t.Fatalf("v2 extraction: %v (%d values)", err, len(vals))
	}

	// Bad ranges and flag combinations are refused.
	for _, spec := range []string{"5", "a:b", "5:5", "9:2", "-1:4", "0:25"} {
		if err := cmdDecompress([]string{"-i", comp, "-o", part, "-planes", spec}); err == nil {
			t.Fatalf("plane spec %q accepted", spec)
		}
	}
	if err := cmdDecompress([]string{"-i", comp, "-o", part, "-planes", "0:2", "-stream"}); err == nil {
		t.Fatal("-planes with -stream accepted")
	}
}

// TestEndToEndAutoMode drives `-mode auto` through both chunked paths: the
// streamed writer (per-shard codec selection, format v5) and the one-shot
// chunked facade, then checks the bound and the info output path.
func TestEndToEndAutoMode(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	if err := cmdGen([]string{"-dataset", "jhtdb", "-o", raw, "-dims", "24x16x16", "-seed", "11"}); err != nil {
		t.Fatal(err)
	}
	orig, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	eb := 1e-3 * float64(hi-lo)

	check := func(tag, path string) {
		t.Helper()
		recon, err := readF32(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if math.Abs(float64(orig[i])-float64(recon[i])) > eb*(1+1e-6) {
				t.Fatalf("%s: bound violated at %d", tag, i)
			}
		}
	}

	streamed := filepath.Join(dir, "auto.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", streamed, "-dims", "24x16x16",
		"-eb", "1e-3", "-mode", "auto", "-stream", "-chunk", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{"-i", streamed}); err != nil {
		t.Fatal(err)
	}
	out1 := filepath.Join(dir, "r1.f32")
	if err := cmdDecompress([]string{"-i", streamed, "-o", out1}); err != nil {
		t.Fatal(err)
	}
	check("auto-streamed", out1)
	// Random access works on the v5 container.
	out2 := filepath.Join(dir, "r2.f32")
	if err := cmdDecompress([]string{"-i", streamed, "-o", out2, "-planes", "5:11"}); err != nil {
		t.Fatal(err)
	}

	chunked := filepath.Join(dir, "auto2.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", chunked, "-dims", "24x16x16",
		"-eb", "1e-3", "-mode", "auto", "-chunk", "6"}); err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "r3.f32")
	if err := cmdDecompress([]string{"-i", chunked, "-o", out3, "-stream"}); err != nil {
		t.Fatal(err)
	}
	check("auto-chunked", out3)
}

// TestStreamedConstantField covers the zero-range case: a constant field
// has no value range, so the relative-bound pre-pass must fall back to
// range 1 (matching metrics.AbsEB) instead of producing a zero bound.
func TestStreamedConstantField(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "c.f32")
	if err := writeF32(raw, make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	comp := filepath.Join(dir, "c.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", comp, "-dims", "4x4x4",
		"-eb", "1e-3", "-mode", "hi-tp", "-stream"}); err != nil {
		t.Fatalf("constant field streamed compress: %v", err)
	}
	out := filepath.Join(dir, "c.out.f32")
	if err := cmdDecompress([]string{"-i", comp, "-o", out}); err != nil {
		t.Fatal(err)
	}
	recon, err := readF32(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if math.Abs(float64(v)) > 1e-3 {
			t.Fatalf("value %d drifted to %v", i, v)
		}
	}
}

func TestCommandValidation(t *testing.T) {
	if err := cmdCompress([]string{"-i", "", "-o", ""}); err == nil {
		t.Fatal("want missing-args error")
	}
	if err := cmdDecompress([]string{"-i", "", "-o", ""}); err == nil {
		t.Fatal("want missing-args error")
	}
	if err := cmdGen([]string{"-dataset", "", "-o", ""}); err == nil {
		t.Fatal("want missing-args error")
	}
	if err := cmdInfo([]string{"-i", ""}); err == nil {
		t.Fatal("want missing-args error")
	}
	if err := cmdGen([]string{"-dataset", "nope", "-o", "/tmp/x"}); err == nil {
		t.Fatal("want unknown-dataset error")
	}
}

// TestEndToEndAppendRepair drives the append and repair verbs: a store is
// torn at several offsets the way a crashed writer would leave it, repair
// reseals the CRC-valid prefix, and append grows the repaired store back to
// the full field — which then decodes within the bound.
func TestEndToEndAppendRepair(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	dims := "18x12x12"
	ps := 12 * 12
	if err := cmdGen([]string{"-dataset", "nyx", "-o", raw, "-dims", dims, "-seed", "13"}); err != nil {
		t.Fatal(err)
	}
	orig, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	eb := 1e-3 * float64(hi-lo)

	store := filepath.Join(dir, "f.cszh")
	if err := cmdCompress([]string{"-i", raw, "-o", store, "-dims", dims,
		"-eb", "1e-3", "-mode", "szx", "-stream", "-chunk", "4"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	fullOut := filepath.Join(dir, "full.f32")
	if err := cmdDecompress([]string{"-i", store, "-o", fullOut}); err != nil {
		t.Fatal(err)
	}
	fullVals, err := readF32(fullOut)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the footer only: every frame survives, repair reseals all 18
	// planes and the decode is bit-identical to the intact store's.
	torn := filepath.Join(dir, "torn.cszh")
	if err := os.WriteFile(torn, blob[:len(blob)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRepair([]string{"-i", torn, "-dry-run"}); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(torn); err != nil || len(after) != len(blob)-9 {
		t.Fatalf("dry-run modified the store: %v, %d bytes", err, len(after))
	}
	if err := cmdRepair([]string{"-i", torn}); err != nil {
		t.Fatal(err)
	}
	out1 := filepath.Join(dir, "r1.f32")
	if err := cmdDecompress([]string{"-i", torn, "-o", out1}); err != nil {
		t.Fatal(err)
	}
	vals, err := readF32(out1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(fullVals) {
		t.Fatalf("footer-only tear lost planes: %d values, want %d", len(vals), len(fullVals))
	}
	for i := range vals {
		if vals[i] != fullVals[i] {
			t.Fatalf("repaired decode diverges from intact decode at %d", i)
		}
	}

	// Cut mid-frame: repair keeps the CRC-valid prefix, append grows the
	// store back to the full field with the store's own mode.
	cutStore := filepath.Join(dir, "cut.cszh")
	if err := os.WriteFile(cutStore, blob[:len(blob)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRepair([]string{"-i", cutStore}); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "r2.f32")
	if err := cmdDecompress([]string{"-i", cutStore, "-o", out2}); err != nil {
		t.Fatal(err)
	}
	prefix, err := readF32(out2)
	if err != nil {
		t.Fatal(err)
	}
	planes := len(prefix) / ps
	if planes == 0 || planes >= 18 || len(prefix)%ps != 0 {
		t.Fatalf("repaired prefix covers %d values (%d planes)", len(prefix), planes)
	}
	for i := range prefix {
		if prefix[i] != fullVals[i] {
			t.Fatalf("prefix decode diverges from intact decode at %d", i)
		}
	}

	rest := filepath.Join(dir, "rest.f32")
	if err := writeF32(rest, orig[planes*ps:]); err != nil {
		t.Fatal(err)
	}
	if err := cmdAppend([]string{"-store", cutStore, "-i", rest}); err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "r3.f32")
	if err := cmdDecompress([]string{"-i", cutStore, "-o", out3}); err != nil {
		t.Fatal(err)
	}
	grown, err := readF32(out3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != len(orig) {
		t.Fatalf("grown store holds %d values, want %d", len(grown), len(orig))
	}
	for i := range grown {
		if math.Abs(float64(orig[i])-float64(grown[i])) > eb*(1+1e-6) {
			t.Fatalf("bound violated at %d after append", i)
		}
	}
	if err := cmdInfo([]string{"-i", cutStore}); err != nil {
		t.Fatal(err)
	}

	// Validation: both verbs refuse missing arguments and absent files.
	if err := cmdAppend([]string{"-store", "", "-i", ""}); err == nil {
		t.Fatal("append without args accepted")
	}
	if err := cmdRepair([]string{"-i", ""}); err == nil {
		t.Fatal("repair without args accepted")
	}
	if err := cmdRepair([]string{"-i", filepath.Join(dir, "nope.cszh")}); err == nil {
		t.Fatal("repair of a missing file accepted")
	}
	if err := cmdAppend([]string{"-store", cutStore, "-i", rest, "-mode", "bogus"}); err == nil {
		t.Fatal("append with an unknown mode accepted")
	}
}

// TestEndToEndBackendModes drives -mode fzgpu|szp|szx through every CLI
// path: one-shot (single-chunk v5), chunked, streamed, random access, and
// info — the front-end face of the backend chunk codecs.
func TestEndToEndBackendModes(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "f.f32")
	if err := cmdGen([]string{"-dataset", "miranda", "-o", raw, "-dims", "16x12x12", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	orig, err := readF32(raw)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := orig[0], orig[0]
	for _, v := range orig {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	eb := 1e-3 * float64(hi-lo)
	check := func(tag, path string) {
		t.Helper()
		recon, err := readF32(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != len(orig) {
			t.Fatalf("%s: %d values, want %d", tag, len(recon), len(orig))
		}
		for i := range orig {
			if math.Abs(float64(orig[i])-float64(recon[i])) > eb*(1+1e-6) {
				t.Fatalf("%s: bound violated at %d", tag, i)
			}
		}
	}
	for _, mode := range []string{"fzgpu", "szp", "szx"} {
		oneShot := filepath.Join(dir, mode+".cszh")
		if err := cmdCompress([]string{"-i", raw, "-o", oneShot, "-dims", "16x12x12",
			"-eb", "1e-3", "-mode", mode}); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, mode+"-r.f32")
		if err := cmdDecompress([]string{"-i", oneShot, "-o", out}); err != nil {
			t.Fatal(err)
		}
		check(mode+"/one-shot", out)
		if err := cmdInfo([]string{"-i", oneShot}); err != nil {
			t.Fatal(err)
		}

		streamed := filepath.Join(dir, mode+"-s.cszh")
		if err := cmdCompress([]string{"-i", raw, "-o", streamed, "-dims", "16x12x12",
			"-eb", "1e-3", "-mode", mode, "-stream", "-chunk", "4"}); err != nil {
			t.Fatal(err)
		}
		out2 := filepath.Join(dir, mode+"-rs.f32")
		if err := cmdDecompress([]string{"-i", streamed, "-o", out2, "-stream"}); err != nil {
			t.Fatal(err)
		}
		check(mode+"/streamed", out2)
		// The v5 index serves random access over backend-coded chunks.
		out3 := filepath.Join(dir, mode+"-rp.f32")
		if err := cmdDecompress([]string{"-i", streamed, "-o", out3, "-planes", "5:9"}); err != nil {
			t.Fatal(err)
		}
	}
}
