package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// backendNames are the registered backend chunk codecs under test.
var backendNames = []string{"fzgpu", "szp", "szx"}

// TestBackendCodecRoundTrip: every backend codec compresses through the
// registry into a self-contained payload that decodes with no outer-header
// help — correct dims, bound honored, with and without a context.
func TestBackendCodecRoundTrip(t *testing.T) {
	dims := []int{10, 12, 12}
	data := make([]float32, 10*12*12)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 5)
	}
	for _, name := range backendNames {
		cd, ok := CodecByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if _, hasOpts := cd.(optioned); hasOpts {
			t.Fatalf("%s should not expose an Options assembly", name)
		}
		payload, err := cd.Compress(nil, dev, data, dims, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recon, rdims, err := cd.Decompress(nil, dev, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rdims) != 3 || rdims[0] != 10 || rdims[1] != 12 || rdims[2] != 12 {
			t.Fatalf("%s: dims = %v", name, rdims)
		}
		if i := metrics.FirstViolation(data, recon, 0.01); i >= 0 {
			t.Fatalf("%s: bound violated at %d", name, i)
		}
		// Context path produces the identical payload.
		ctx := arena.NewCtx()
		got, err := cd.Compress(ctx, dev, data, dims, 0.01)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: ctx payload diverges (%v)", name, err)
		}
	}
}

// TestBackendCodecHostilePayloads: truncations and bit flips of every
// backend payload must decode to ErrCorrupt (or a plain error), never
// panic — the contract the v5 chunk dispatcher relies on.
func TestBackendCodecHostilePayloads(t *testing.T) {
	dims := []int{6, 8, 8}
	data := make([]float32, 6*8*8)
	for i := range data {
		data[i] = float32(i%13) * 0.5
	}
	rng := rand.New(rand.NewSource(5))
	for _, name := range backendNames {
		cd, _ := CodecByName(name)
		payload, err := cd.Compress(nil, dev, data, dims, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, 2, 5, len(payload) / 2, len(payload) - 1} {
			// The adapter wraps every backend diagnosis in core.ErrCorrupt.
			if _, _, err := cd.Decompress(nil, dev, payload[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation to %d: err = %v", name, cut, err)
			}
		}
		for trial := 0; trial < 40; trial++ {
			bad := append([]byte(nil), payload...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			cd.Decompress(nil, dev, bad) // must not panic
		}
	}
}

// TestCompressChunkedCodec: the fixed-backend chunked compressor emits a
// decodable v5 container whose histogram is entirely the one codec, for
// both multi-chunk and single-chunk ("one-shot") layouts.
func TestCompressChunkedCodec(t *testing.T) {
	dims := []int{12, 10, 10}
	data := rampField(12 * 10 * 10)
	for _, name := range backendNames {
		cd, _ := CodecByName(name)
		for _, cp := range []int{4, 12} {
			blob, err := CompressChunked(dev, data, dims, cp, EncodeSpec{Version: 5, EB: 0.02, Codec: cd})
			if err != nil {
				t.Fatalf("%s/cp=%d: %v", name, cp, err)
			}
			if blob[4] != 5 {
				t.Fatalf("%s/cp=%d: version %d", name, cp, blob[4])
			}
			recon, rdims, err := DecompressCtx(nil, dev, blob)
			if err != nil || rdims[0] != 12 {
				t.Fatalf("%s/cp=%d: decode: %v", name, cp, err)
			}
			if i := metrics.FirstViolation(data, recon, 0.02); i >= 0 {
				t.Fatalf("%s/cp=%d: bound violated at %d", name, cp, i)
			}
			info, err := Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			wantChunks := (12 + cp - 1) / cp
			if info.ChunkCodecs[name] != wantChunks || len(info.ChunkCodecs) != 1 {
				t.Fatalf("%s/cp=%d: histogram %v", name, cp, info.ChunkCodecs)
			}
		}
	}
}

// TestSZpNaNChunkedV5: a chunked v5 szp store over a field with NaN
// sprinkles decodes, NaN as NaN and every finite value within the bound.
func TestSZpNaNChunkedV5(t *testing.T) {
	const eb = 1e-3
	dims := []int{12, 10, 10}
	data := rampField(12 * 10 * 10)
	for i := 7; i < len(data); i += 97 {
		data[i] = float32(math.NaN())
	}
	cd, _ := CodecByName("szp")
	blob, err := CompressChunked(dev, data, dims, 4, EncodeSpec{Version: 5, EB: eb, Codec: cd})
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		r := float64(recon[i])
		if v != v {
			if !math.IsNaN(r) {
				t.Fatalf("NaN at %d decoded as %v", i, r)
			}
		} else if !(math.Abs(float64(v)-r) <= eb) {
			t.Fatalf("bound violated at %d: %v vs %v", i, v, r)
		}
	}
}

// TestV5BackendGolden locks the mixed cusz-l + fzgpu + szx container
// layout: backend frames carry a zero codec-mode byte and their registered
// wire ID, the footer entries agree, the histogram names all three codecs,
// and sequential and random-access decodes agree byte-exactly.
func TestV5BackendGolden(t *testing.T) {
	dims := []int{6, 4, 4}
	data := rampField(6 * 4 * 4)
	blob, entries := makeV5(t, data, dims, 0.1, 2, []string{"cusz-l", "fzgpu", "szx"})

	if blob[4] != 5 {
		t.Fatalf("version = %d", blob[4])
	}
	// Frame 0 (cusz-l, an assembly): codec mode 0x12, ID 5.
	f0 := int(entries[0].FrameOff)
	if blob[f0+4] != 0x12 || CodecID(blob[f0+5]) != CodecCuszL {
		t.Fatalf("chunk0 mode/id = %#x %d", blob[f0+4], blob[f0+5])
	}
	// Frame 1 (fzgpu, a backend): codec mode 0 (advisory, no assembly),
	// ID 6 — the ID byte sits between the mode byte and the value range.
	f1 := int(entries[1].FrameOff)
	if blob[f1+4] != 0 || CodecID(blob[f1+5]) != CodecFzGPU {
		t.Fatalf("chunk1 mode/id = %#x %d", blob[f1+4], blob[f1+5])
	}
	// Frame 2 (szx): codec mode 0, ID 8.
	f2 := int(entries[2].FrameOff)
	if blob[f2+4] != 0 || CodecID(blob[f2+5]) != CodecSZx {
		t.Fatalf("chunk2 mode/id = %#x %d", blob[f2+4], blob[f2+5])
	}
	if entries[0].Codec != CodecCuszL || entries[1].Codec != CodecFzGPU || entries[2].Codec != CodecSZx {
		t.Fatalf("footer codecs = %v", entries)
	}

	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.ChunkCodecs["cusz-l"] != 1 || info.ChunkCodecs["fzgpu"] != 1 || info.ChunkCodecs["szx"] != 1 {
		t.Fatalf("histogram = %v", info.ChunkCodecs)
	}

	recon, rdims, err := DecompressCtx(nil, dev, blob)
	if err != nil || rdims[0] != 6 {
		t.Fatalf("decode: %v", err)
	}
	if i := metrics.FirstViolation(data, recon, 0.1); i >= 0 {
		t.Fatalf("bound violated at %d", i)
	}

	// The wire IDs are frozen: renumbering a shipped backend breaks every
	// v5 container holding its chunks.
	if CodecFzGPU != 6 || CodecSZp != 7 || CodecSZx != 8 {
		t.Fatalf("backend wire IDs renumbered: %d %d %d", CodecFzGPU, CodecSZp, CodecSZx)
	}
}

// TestBackendChunkHostileIDs: swapping a backend chunk's frame ID for
// another registered codec must fail the decode (the payload no longer
// parses under the claimed codec, or the footer cross-check trips), and
// the footer/frame codec mismatch error names both codecs.
func TestBackendChunkHostileIDs(t *testing.T) {
	dims := []int{4, 4, 4}
	data := rampField(64)
	blob, entries := makeV5(t, data, dims, 0.1, 2, []string{"fzgpu", "szx"})
	if _, _, err := DecompressCtx(nil, dev, blob); err != nil {
		t.Fatal(err)
	}
	// Flip frame 0's ID from fzgpu to szp: both are backends with mode
	// byte 0, so the mode cross-check cannot catch it — the footer must.
	bad := append([]byte(nil), blob...)
	bad[int(entries[0].FrameOff)+5] = byte(CodecSZp)
	_, _, err := DecompressCtx(nil, dev, bad)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped backend ID: err = %v", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("fzgpu")) ||
		!bytes.Contains([]byte(err.Error()), []byte("szp")) {
		t.Fatalf("mismatch error does not name both codecs: %v", err)
	}
}

// TestBackendModesViaAutoCandidates: the widened candidate set includes
// the backends and SelectShardCodecPolicy still returns a working codec on data
// engineered so a backend wins (near-constant values: szp's zero-block
// bitmap or szx's constant blocks beat the assemblies' per-shard
// overheads at tiny shard sizes).
func TestBackendCandidatesSelectable(t *testing.T) {
	if len(autoSelectCandidates()) != 6 {
		t.Fatalf("candidates = %d, want 6", len(autoSelectCandidates()))
	}
	shard := make([]float32, 64*8*8) // constant: the degenerate best case
	ctx := arena.NewCtx()
	cd, _, err := SelectShardCodecPolicy(ctx, gpusim.New(1), shard, []int{64, 8, 8}, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := cd.Compress(nil, dev, shard, []int{64, 8, 8}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := cd.Decompress(nil, dev, payload)
	if err != nil || len(recon) != len(shard) {
		t.Fatalf("winner %s failed its own shard: %v", cd.Name(), err)
	}
	if i := metrics.FirstViolation(shard, recon, 0.01); i >= 0 {
		t.Fatalf("bound violated at %d", i)
	}
	t.Logf("constant shard winner: %s", cd.Name())
}
