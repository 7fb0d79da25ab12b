package lz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

var variants = []Variant{LZ4Lite, GPULZLite, ZstdLite, GDeflateLite}

func testVectors(rng *rand.Rand) [][]byte {
	repeats := bytes.Repeat([]byte("abcabcabc123"), 1000)
	random := make([]byte, 5000)
	rng.Read(random)
	runs := make([]byte, 10_000)
	for i := range runs {
		runs[i] = byte(i / 700)
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	mixed := append(append([]byte{}, random[:1000]...), repeats[:3000]...)
	return [][]byte{
		nil,
		{1},
		{1, 2, 3},
		make([]byte, 10_000),
		repeats, random, runs, text, mixed,
	}
}

func TestRoundTripAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs := testVectors(rng)
	for _, v := range variants {
		for vi, data := range vecs {
			enc, err := EncodeCtx(nil, dev, data, v)
			if err != nil {
				t.Fatalf("%s vec %d encode: %v", v, vi, err)
			}
			dec, err := DecodeCtx(nil, dev, enc, v)
			if err != nil {
				t.Fatalf("%s vec %d decode: %v", v, vi, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s vec %d: mismatch (%d vs %d bytes)", v, vi, len(dec), len(data))
			}
		}
	}
}

func TestCompressesRepeats(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	for _, v := range variants {
		enc, err := EncodeCtx(nil, dev, data, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > len(data)/4 {
			t.Fatalf("%s: repetitive data compressed to %d/%d", v, len(enc), len(data))
		}
	}
}

func TestZstdLiteBeatsLZ4LiteOnSkewedLiterals(t *testing.T) {
	// Entropy-coded literals matter when matches are rare but the literal
	// distribution is skewed — this is the Fig. 6 separation.
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(rng.NormFloat64()*4) + 128
	}
	encZ, err := EncodeCtx(nil, dev, data, ZstdLite)
	if err != nil {
		t.Fatal(err)
	}
	encL, err := EncodeCtx(nil, dev, data, LZ4Lite)
	if err != nil {
		t.Fatal(err)
	}
	if len(encZ) >= len(encL) {
		t.Fatalf("zstd-lite (%d) should beat lz4-lite (%d) on skewed literals", len(encZ), len(encL))
	}
}

func TestOverlappingMatches(t *testing.T) {
	// RLE-style overlap: dist < matchLen.
	data := append([]byte{5}, bytes.Repeat([]byte{5}, 1000)...)
	for _, v := range variants {
		enc, err := EncodeCtx(nil, dev, data, v)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeCtx(nil, dev, enc, v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%s: overlap mismatch", v)
		}
	}
}

func TestDecodeCorruptNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := bytes.Repeat([]byte("hello world "), 500)
	for _, v := range variants {
		enc, err := EncodeCtx(nil, dev, data, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, len(enc) / 3, len(enc) - 1} {
			DecodeCtx(nil, dev, enc[:cut], v) // must not panic
		}
		for trial := 0; trial < 30; trial++ {
			bad := append([]byte(nil), enc...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			DecodeCtx(nil, dev, bad, v) // must not panic
		}
	}
}

func TestUnknownVariant(t *testing.T) {
	if _, err := EncodeCtx(nil, dev, []byte("x"), Variant(99)); err == nil {
		t.Fatal("want error for unknown variant")
	}
	if _, err := DecodeCtx(nil, dev, []byte("x"), Variant(99)); err == nil {
		t.Fatal("want error for unknown variant")
	}
}

func TestVariantString(t *testing.T) {
	if LZ4Lite.String() != "lz4-lite" || ZstdLite.String() != "zstd-lite" {
		t.Fatal("variant names")
	}
}

func TestMatchLenBounds(t *testing.T) {
	src := []byte{1, 1, 1, 1, 1, 2}
	if got := matchLen(src, 0, 1, 100); got != 4 {
		t.Fatalf("matchLen = %d, want 4", got)
	}
	if got := matchLen(src, 0, 1, 2); got != 2 {
		t.Fatalf("capped matchLen = %d, want 2", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, v := range variants {
		v := v
		f := func(data []byte) bool {
			enc, err := EncodeCtx(nil, dev, data, v)
			if err != nil {
				return false
			}
			dec, err := DecodeCtx(nil, dev, enc, v)
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

// TestCtxMatchesContextFree: every variant's arena-context entry points
// must produce byte-identical streams to the context-free wrappers.
func TestCtxMatchesContextFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, v := range variants {
		ctx := arena.NewCtx()
		for _, src := range testVectors(rng) {
			want, err := EncodeCtx(nil, dev, src, v)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			ctx.Reset()
			got, err := EncodeCtx(ctx, dev, src, v)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: context encode diverges from context-free encode", v)
			}
			ctx.Reset()
			dec, err := DecodeCtx(ctx, dev, got, v)
			if err != nil || !bytes.Equal(dec, src) {
				t.Fatalf("%v: ctx round trip: %v", v, err)
			}
		}
	}
}

// TestAllocsWarmCtx is the arena-refactor guard for the byte-aligned
// variants: a warm context re-codes stream after stream with a
// near-constant handful of allocations (the entropy variants pay their
// rANS/Huffman back-ends and are guarded loosely).
func TestAllocsWarmCtx(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over 0123456789 "), 1500)
	dev1 := gpusim.New(1) // single worker: no per-launch goroutine allocs
	ceilings := map[Variant][2]float64{
		LZ4Lite:   {6, 4},
		GPULZLite: {6, 4},
	}
	for v, lim := range ceilings {
		ctx := arena.NewCtx()
		blob, err := EncodeCtx(ctx, dev1, src, v)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset()
		if _, err := DecodeCtx(ctx, dev1, blob, v); err != nil {
			t.Fatal(err)
		}
		enc := testing.AllocsPerRun(10, func() {
			ctx.Reset()
			if _, err := EncodeCtx(ctx, dev1, src, v); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v warm encode: %v allocs/op", v, enc)
		if enc > lim[0] {
			t.Fatalf("%v: steady-state encode allocates %v/op, want <= %v", v, enc, lim[0])
		}
		dec := testing.AllocsPerRun(10, func() {
			ctx.Reset()
			if _, err := DecodeCtx(ctx, dev1, blob, v); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v warm decode: %v allocs/op", v, dec)
		if dec > lim[1] {
			t.Fatalf("%v: steady-state decode allocates %v/op, want <= %v", v, dec, lim[1])
		}
	}
}

// TestDecodeVarintHostileMatchLen is the regression guard for the
// unsigned-wrap match bound: a stream whose literals overshoot origLen
// followed by a huge matchLen must fail fast with ErrCorrupt instead of
// replaying ~10^12 bytes through the append loop.
func TestDecodeVarintHostileMatchLen(t *testing.T) {
	bad := bitio.AppendUvarint(nil, 1) // origLen 1
	bad = bitio.AppendUvarint(bad, 5)  // 5 literals (already > origLen)
	bad = append(bad, "abcde"...)
	bad = bitio.AppendUvarint(bad, 1<<40) // hostile matchLen
	bad = bitio.AppendUvarint(bad, 1)     // dist
	done := make(chan error, 1)
	go func() {
		_, err := DecodeCtx(nil, dev, bad, LZ4Lite)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("hostile matchLen decoded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decoder hung on hostile matchLen")
	}
}
