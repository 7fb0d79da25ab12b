package stream

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/cuszhi"
	"repro/internal/metrics"
)

// mixedField builds a field whose character flips along the slow dimension:
// the first half is a smooth separable ramp (interpolation-friendly), the
// second half is rough small-scale noise (Lorenzo territory), so per-chunk
// codec selection has something real to adapt to.
func mixedField(dims []int) []float32 {
	ps := dims[1] * dims[2]
	data := make([]float32, dims[0]*ps)
	rng := rand.New(rand.NewSource(9))
	for z := 0; z < dims[0]; z++ {
		for i := 0; i < ps; i++ {
			y, x := i/dims[2], i%dims[2]
			if z < dims[0]/2 {
				data[z*ps+i] = float32(z)*0.5 + float32(y)*0.25 + float32(x)*0.125
			} else {
				data[z*ps+i] = float32(rng.NormFloat64() * 10)
			}
		}
	}
	return data
}

// TestAutoModeStreamRoundTrip drives the per-chunk adaptive writer end to
// end: WithAutoMode emits a format-v5 container whose chunks may use
// different codecs, and all three consumers (one-shot decoder, sequential
// Reader, random-access ReaderAt) reconstruct it within the bound.
func TestAutoModeStreamRoundTrip(t *testing.T) {
	dims := []int{32, 16, 16}
	data := mixedField(dims)
	absEB := cuszhi.AbsEB(data, 1e-3)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, WithAutoMode(), WithChunkPlanes(8), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	info, err := cuszhi.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 5 || !info.HasIndex || info.NumChunks != 4 {
		t.Fatalf("info = %+v", info)
	}
	total := 0
	for _, n := range info.ChunkCodecs {
		total += n
	}
	if total != 4 {
		t.Fatalf("codec histogram %v does not cover 4 chunks", info.ChunkCodecs)
	}

	// One-shot decode.
	full, gotDims, err := cuszhi.Decompress(blob)
	if err != nil || gotDims[0] != 32 {
		t.Fatalf("one-shot decode: %v (dims %v)", err, gotDims)
	}
	if !metrics.WithinBound(data, full, absEB) {
		t.Fatal("auto-mode reconstruction out of bound")
	}

	// Sequential streaming decode.
	r, err := NewReader(bytes.NewReader(blob), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seq, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if seq[i] != full[i] {
			t.Fatalf("sequential decode diverges at %d", i)
		}
	}

	// Random access through the v5 index.
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Version() != 5 || ra.NumChunks() != 4 {
		t.Fatalf("readerAt: v%d, %d chunks", ra.Version(), ra.NumChunks())
	}
	hist := ra.CodecHistogram()
	sum := 0
	for _, n := range hist {
		sum += n
	}
	if sum != 4 {
		t.Fatalf("ReaderAt codec histogram %v does not cover 4 chunks", hist)
	}
	ps := 16 * 16
	got, err := ra.ReadPlanes(nil, 10, 26) // spans smooth and rough shards
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != full[10*ps+i] {
			t.Fatalf("ReadPlanes diverges from full decode at %d", i)
		}
	}
}

// TestAutoModeAdaptsAcrossShards: on the mixed field the selector must not
// collapse to one codec — the smooth half and the rough half should pick
// different winners (this is the point of per-chunk dispatch).
func TestAutoModeAdaptsAcrossShards(t *testing.T) {
	dims := []int{32, 16, 16}
	data := mixedField(dims)
	absEB := cuszhi.AbsEB(data, 1e-3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, WithAutoMode(), WithChunkPlanes(16), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ChunkCodecs) < 2 {
		t.Fatalf("mixed field selected a single codec: %v", info.ChunkCodecs)
	}
}

// TestAutoModeRelativeEB: per-shard codec selection composes with
// per-shard relative bounds (each shard scores candidates under its own
// resolved absolute bound).
func TestAutoModeRelativeEB(t *testing.T) {
	dims := []int{24, 12, 12}
	data := mixedField(dims)
	relEB := 1e-3
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, relEB, WithAutoMode(), WithRelativeEB(), WithChunkPlanes(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil || info.Version != 5 || !info.RelativeEB {
		t.Fatalf("info = %+v (err %v)", info, err)
	}
	recon, _, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := metrics.Range(data)
	bound := relEB * float64(hi-lo) * (1 + 1e-6)
	for i := range data {
		d := float64(data[i]) - float64(recon[i])
		if d > bound || d < -bound {
			t.Fatalf("relative bound violated at %d: %v vs %v", i, data[i], recon[i])
		}
	}
}

// TestAutoSelectionsObservability: an auto-mode Writer records one
// estimator-vs-actual decision per shard, sorted by plane offset, and the
// container's Inspect exposes the per-chunk achieved ratios.
func TestAutoSelectionsObservability(t *testing.T) {
	dims := []int{32, 16, 16}
	data := mixedField(dims)
	absEB := cuszhi.AbsEB(data, 1e-3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, WithAutoMode(), WithChunkPlanes(8), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sels := w.AutoSelections()
	if len(sels) != 4 {
		t.Fatalf("got %d selections, want 4: %+v", len(sels), sels)
	}
	for i, s := range sels {
		if s.PlaneOff != i*8 || s.Planes != 8 {
			t.Fatalf("selection %d not sorted by plane offset: %+v", i, s)
		}
		if s.Codec == "" || s.EstBytes <= 0 || s.Bytes <= 0 {
			t.Fatalf("selection %d incomplete: %+v", i, s)
		}
		if s.EstRatio <= 0 || s.Ratio <= 0 {
			t.Fatalf("selection %d ratios unset: %+v", i, s)
		}
		// The estimator's prediction must be in the same universe as the
		// achieved size — a wildly wrong price means selection is blind.
		if f := float64(s.EstBytes) / float64(s.Bytes); f > 8 || f < 1.0/8 {
			t.Fatalf("selection %d estimate %d vs actual %d (off %.1fx)", i, s.EstBytes, s.Bytes, f)
		}
	}

	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ChunkCRs) != 4 {
		t.Fatalf("Inspect chunk CRs = %v, want 4 entries", info.ChunkCRs)
	}
	// Inspect's CRs divide by whole frame extents (frame header + CRC on
	// top of the payload), so they sit at or slightly below the payload
	// ratio the selection records.
	for i, cr := range info.ChunkCRs {
		if got := sels[i].Ratio; cr > got*1.01 || cr < got*0.80 {
			t.Fatalf("chunk %d: Inspect CR %.3f vs selection CR %.3f", i, cr, got)
		}
	}

	// Non-auto writers report no selections.
	var fixed bytes.Buffer
	wf, err := NewWriter(&fixed, dims, absEB)
	if err != nil {
		t.Fatal(err)
	}
	if err := wf.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	if got := wf.AutoSelections(); got != nil {
		t.Fatalf("fixed-mode writer reported selections: %+v", got)
	}
}

// TestAutoPolicyThreading: every policy spelling produces a decodable
// container, the throughput policy is allowed to trade ratio for speed but
// only within its slack, and option misuse fails fast at NewWriter.
func TestAutoPolicyThreading(t *testing.T) {
	dims := []int{32, 16, 16}
	data := mixedField(dims)
	absEB := cuszhi.AbsEB(data, 1e-3)

	sizes := map[string]int{}
	for _, pol := range []string{"best-ratio", "throughput", "ratio-floor:4"} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, dims, absEB,
			WithAutoMode(), WithAutoPolicy(pol), WithChunkPlanes(8), WithWorkers(2))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := w.WriteValues(data); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		recon, _, err := Decompress(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", pol, err)
		}
		if !metrics.WithinBound(data, recon, absEB) {
			t.Fatalf("%s: reconstruction out of bound", pol)
		}
		sizes[pol] = buf.Len()
	}
	// Throughput may give up at most its slack (15%) plus estimator error
	// against best-ratio; 30% is the generous ceiling.
	if f := float64(sizes["throughput"]) / float64(sizes["best-ratio"]); f > 1.30 {
		t.Fatalf("throughput container %.2fx best-ratio, want <= 1.30x (sizes %v)", f, sizes)
	}

	if _, err := NewWriter(&bytes.Buffer{}, dims, absEB, WithAutoMode(), WithAutoPolicy("bogus")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := NewWriter(&bytes.Buffer{}, dims, absEB, WithAutoPolicy("throughput")); err == nil {
		t.Fatal("WithAutoPolicy without auto mode accepted")
	}
}

// TestChunkedAutoOneShot: the non-streaming facade path
// (cuszhi.New(ModeAuto, WithChunkPlanes)) also produces a heterogeneous v5
// container, through the same per-shard body as the streaming writer.
func TestChunkedAutoOneShot(t *testing.T) {
	dims := []int{32, 12, 12}
	data := mixedField(dims)
	c, err := cuszhi.New(cuszhi.ModeAuto, cuszhi.WithChunkPlanes(16), cuszhi.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	absEB := cuszhi.AbsEB(data, 1e-3)
	blob, err := c.CompressAbs(data, dims, absEB)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cuszhi.Inspect(blob)
	if err != nil || info.Version != 5 {
		t.Fatalf("info = %+v (err %v)", info, err)
	}
	recon, _, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("chunked auto reconstruction out of bound")
	}
	// The container is seekable like any v5 stream output.
	if _, _, err := ReadPlanesAt(bytes.NewReader(blob), int64(len(blob)), 14, 18); err != nil {
		t.Fatal(err)
	}
}
