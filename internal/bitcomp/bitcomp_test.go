package bitcomp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

func roundTrip(t *testing.T, data []byte) []byte {
	t.Helper()
	enc, err := CompressCtx(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(nil, dev, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("round trip mismatch (%d vs %d bytes)", len(dec), len(data))
	}
	return enc
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{42})
	roundTrip(t, []byte{1, 2, 3, 4, 5})
	roundTrip(t, make([]byte, 512))
	roundTrip(t, make([]byte, 513))
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{100, 511, 512, 513, 100_000} {
		data := make([]byte, n)
		rng.Read(data)
		roundTrip(t, data)
	}
}

func TestRunsCompressMassively(t *testing.T) {
	// The Table-1 scenario: Huffman output of near-constant quant codes is
	// long runs of identical bytes; Bitcomp must crush those.
	data := bytes.Repeat([]byte{0xAA}, 1<<20)
	enc := roundTrip(t, data)
	ratio := float64(len(data)) / float64(len(enc))
	if ratio < 50 {
		t.Fatalf("run compression ratio = %.1f, want >> 1", ratio)
	}
}

func TestIncompressibleStaysNearOne(t *testing.T) {
	// The other half of Table 1: already-de-redundated (random) data must
	// stay near ratio 1 (it may expand slightly, bounded by headers).
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	enc := roundTrip(t, data)
	ratio := float64(len(data)) / float64(len(enc))
	if ratio < 0.85 || ratio > 1.2 {
		t.Fatalf("random-data ratio = %.3f, want ~1", ratio)
	}
}

func TestRatio(t *testing.T) {
	r, err := Ratio(dev, bytes.Repeat([]byte{1}, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if r < 10 {
		t.Fatalf("Ratio on runs = %.2f", r)
	}
	r, err = Ratio(dev, nil)
	if err != nil || r != 1 {
		t.Fatalf("Ratio(empty) = %v, %v", r, err)
	}
}

func TestSlowRampCompresses(t *testing.T) {
	// A slow staircase has runs of identical bytes (zero deltas), which the
	// zero-elimination stage removes.
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i / 64)
	}
	enc := roundTrip(t, data)
	if len(enc) > len(data)/4 {
		t.Fatalf("staircase compressed to %d/%d", len(enc), len(data))
	}
}

func TestNeverExpandsBeyondHeader(t *testing.T) {
	// The raw fallback bounds expansion to the small header.
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(9)).Read(data)
	enc := roundTrip(t, data)
	if len(enc) > len(data)+8 {
		t.Fatalf("expanded to %d/%d", len(enc), len(data))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := make([]byte, 5000)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	enc, err := CompressCtx(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecompressCtx(nil, dev, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d: want error", cut)
		}
	}
	for trial := 0; trial < 30; trial++ {
		bad := append([]byte(nil), enc...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		DecompressCtx(nil, dev, bad) // must not panic
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc, err := CompressCtx(nil, dev, data)
		if err != nil {
			return false
		}
		dec, err := DecompressCtx(nil, dev, enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCtxMatchesContextFree: the arena-context entry points must produce
// byte-identical streams to the context-free wrappers.
func TestCtxMatchesContextFree(t *testing.T) {
	src := make([]byte, 1<<15)
	for i := range src {
		src[i] = byte(i % 7 * (i % 5))
	}
	want, err := CompressCtx(nil, dev, src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := arena.NewCtx()
	got, err := CompressCtx(ctx, dev, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("context compression diverges from context-free compression")
	}
	ctx.Reset()
	dec, err := DecompressCtx(ctx, dev, got)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatalf("ctx round trip: %v", err)
	}
}

// TestAllocsWarmCtx is the arena-refactor guard: warm contexts re-code
// stream after stream with a near-constant handful of allocations.
func TestAllocsWarmCtx(t *testing.T) {
	src := make([]byte, 1<<16)
	for i := range src {
		src[i] = byte(i % 9 * (i % 4))
	}
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ctx := arena.NewCtx()
	blob, err := CompressCtx(ctx, dev1, src)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := DecompressCtx(ctx, dev1, blob); err != nil {
		t.Fatal(err)
	}
	comp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := CompressCtx(ctx, dev1, src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm compress: %v allocs/op", comp)
	if comp > 8 {
		t.Fatalf("steady-state compress allocates %v/op, want <= 8", comp)
	}
	decomp := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := DecompressCtx(ctx, dev1, blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm decompress: %v allocs/op", decomp)
	if decomp > 6 {
		t.Fatalf("steady-state decompress allocates %v/op, want <= 6", decomp)
	}
}
