package core

import (
	"bytes"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// raceEnabled is set by race_test.go when building with -race.
var raceEnabled bool

// TestAllocsOneShotRoundTrip locks the steady-state allocation ceiling of a
// reused codec context: a 64³ compress+decompress round trip through the
// Lorenzo+Huffman assembly must stay within 10 allocations per op once the
// context is warm (the ISSUE-2 acceptance bar). A regression here means a
// hot-path buffer stopped coming from the arena.
func TestAllocsOneShotRoundTrip(t *testing.T) {
	dims := []int{64, 64, 64}
	data := rampField(64 * 64 * 64)
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	opts := CuszL()
	ctx := arena.NewCtx()

	// Warm the context slots and keep a blob for the decompress half.
	blob, err := CompressCtx(ctx, dev1, data, dims, 0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, _, err := DecompressCtx(ctx, dev1, blob); err != nil {
		t.Fatal(err)
	}

	roundTrip := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		b, err := CompressCtx(ctx, dev1, data, dims, 0.01, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset()
		if _, _, err := DecompressCtx(ctx, dev1, b); err != nil {
			t.Fatal(err)
		}
	})
	if roundTrip > 10 {
		t.Fatalf("steady-state 64³ round trip allocates %v/op, want <= 10", roundTrip)
	}

	decomp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, _, err := DecompressCtx(ctx, dev1, blob); err != nil {
			t.Fatal(err)
		}
	})
	if decomp > 2 {
		t.Fatalf("steady-state decompress allocates %v/op, want <= 2", decomp)
	}
}

// TestAllocsChunkedSteadyState bounds the per-op allocations of the full
// chunked (v2) pipeline, which recycles one codec context per worker. The
// ceiling is looser than the one-shot path (frames, pool bookkeeping and
// the assembled container are real per-op costs) but must stay far below
// the pre-arena behavior of reallocating every shard's working set.
func TestAllocsChunkedSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses pooling under -race; ceiling is calibrated for normal builds")
	}
	dims := []int{64, 32, 32}
	data := rampField(64 * 32 * 32)
	dev1 := gpusim.New(1)
	opts := CuszL()
	blob, err := CompressChunked(dev1, data, dims, 16, v2Spec(opts, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		b, err := CompressChunked(dev1, data, dims, 16, v2Spec(opts, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecompressCtx(nil, dev1, b); err != nil {
			t.Fatal(err)
		}
	})
	// 4 shards each way; ~25 bookkeeping allocations per op observed, 120
	// leaves headroom without hiding an O(field-size) regression.
	if n > 120 {
		t.Fatalf("chunked 4-shard round trip allocates %v/op, want <= 120", n)
	}
	if _, _, err := DecompressCtx(nil, dev1, blob); err != nil {
		t.Fatal(err)
	}
}

// TestCtxNoAliasingBetweenFields proves a recycled context never leaks
// bytes between consecutive fields: containers returned by CompressCtx are
// caller-owned (bit-identical to a no-context compress even after the
// context is reused for a different field), and decompressed fields
// returned by the public chunked API survive later decompressions that
// recycle the same worker contexts.
func TestCtxNoAliasingBetweenFields(t *testing.T) {
	dims := []int{20, 16, 16}
	n := 20 * 16 * 16
	fieldA := rampField(n)
	fieldB := make([]float32, n)
	for i := range fieldB {
		fieldB[i] = float32((i*7)%31) - 11.5
	}
	dev1 := gpusim.New(1)

	for _, opts := range []Options{CuszL(), HiTP()} {
		// Reference containers from context-free compression.
		wantA, err := CompressCtx(nil, dev1, fieldA, dims, 0.02, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := CompressCtx(nil, dev1, fieldB, dims, 0.02, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := arena.NewCtx()
		gotA, err := CompressCtx(ctx, dev1, fieldA, dims, 0.02, opts)
		if err != nil {
			t.Fatal(err)
		}
		snapA := append([]byte(nil), gotA...)
		ctx.Reset()
		gotB, err := CompressCtx(ctx, dev1, fieldB, dims, 0.02, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotA, snapA) {
			t.Fatalf("%s: blob A mutated by compressing field B through the same context", opts.Name)
		}
		if !bytes.Equal(gotA, wantA) || !bytes.Equal(gotB, wantB) {
			t.Fatalf("%s: context compression diverges from context-free compression", opts.Name)
		}
	}

	// Public chunked decode path: worker contexts recycle across shards
	// and across calls; previously returned fields must stay intact.
	dev4 := gpusim.New(4)
	blobA, err := CompressChunked(dev4, fieldA, dims, 6, v2Spec(CuszL(), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := CompressChunked(dev4, fieldB, dims, 6, v2Spec(CuszL(), 0.02))
	if err != nil {
		t.Fatal(err)
	}
	reconA, _, err := DecompressCtx(nil, dev4, blobA)
	if err != nil {
		t.Fatal(err)
	}
	snapA := append([]float32(nil), reconA...)
	for i := 0; i < 3; i++ {
		if _, _, err := DecompressCtx(nil, dev4, blobB); err != nil {
			t.Fatal(err)
		}
	}
	for i := range snapA {
		if reconA[i] != snapA[i] {
			t.Fatalf("reconstruction of field A changed at %d after decompressing field B", i)
		}
	}
	if i := metrics.FirstViolation(fieldA, reconA, 0.02); i >= 0 {
		t.Fatalf("field A reconstruction out of bound at %d", i)
	}
}

// TestCompressExactSize checks that a one-shot container is one allocation
// of exactly its length, for every assembly and for fields with and
// without outliers.
func TestCompressExactSize(t *testing.T) {
	dims := []int{20, 24, 28}
	smooth := rampField(20 * 24 * 28)
	noise := make([]float32, len(smooth))
	for i := range noise {
		noise[i] = float32(i*7919%1013) / 1013
	}
	for _, mode := range []string{"hi-cr", "hi-tp", "cusz-i", "cusz-ib", "cusz-l"} {
		opts, err := ModeOptions(mode)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]float32{"smooth": smooth, "noise": noise} {
			blob, err := CompressCtx(arena.NewCtx(), gpusim.New(1), data, dims, 1e-4, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", mode, name, err)
			}
			if len(blob) != cap(blob) {
				t.Fatalf("%s %s: container is %d bytes in a %d-byte allocation", mode, name, len(blob), cap(blob))
			}
		}
	}
}
