package huffman

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

// encodeRef is the reference encoder, kept as the oracle of the packed-
// table kernel behind EncodeCtx and EncodeBytesCtx. It validates the
// alphabet and histogram as they do, refuses a symbol without a code,
// and writes every chunk one code at a time through bitio.Writer's
// WriteBits (in assemble).
func encodeRef(symbols []uint16, alphabet int, freq []int64) ([]byte, error) {
	if alphabet <= 0 || alphabet > 1<<16 {
		return nil, fmt.Errorf("bad alphabet %d", alphabet)
	}
	if freq == nil {
		freq = make([]int64, alphabet)
		for _, sym := range symbols {
			if int(sym) >= alphabet {
				return nil, fmt.Errorf("symbol %d outside alphabet %d", sym, alphabet)
			}
			freq[sym]++
		}
	} else {
		if len(freq) != alphabet {
			return nil, errors.New("histogram length != alphabet")
		}
		var sum int64
		for _, f := range freq {
			if f < 0 {
				return nil, errors.New("negative histogram count")
			}
			sum += f
		}
		if sum != int64(len(symbols)) {
			return nil, errors.New("histogram sum != stream length")
		}
	}
	lens, err := (&scratch{}).buildLengths(freq)
	if err != nil {
		return nil, err
	}
	codes := (&scratch{}).canonicalCodes(lens)
	for _, sym := range symbols {
		if int(sym) >= len(codes) || codes[sym].len == 0 {
			return nil, errors.New("histogram disagrees with the symbol stream")
		}
	}
	return assemble(symbols, lens, DefaultChunk), nil
}

func histogram[S byte | uint16](syms []S, alphabet int) []int64 {
	freq := make([]int64, alphabet)
	for _, s := range syms {
		freq[s]++
	}
	return freq
}

// byteStreams are the byte streams of the encode differential, n symbols
// each.
func byteStreams(n int) (names []string, streams [][]byte) {
	add := func(name string, p []byte) {
		names = append(names, name)
		streams = append(streams, p)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	add("skewed", skewedBytes(n, 1))
	add("quantLike", quantLike(n, 2))
	uniform := make([]byte, n)
	rng.Read(uniform)
	add("uniform", uniform)
	add("one symbol", bytes.Repeat([]byte{200}, n))
	two := make([]byte, n)
	for i := range two {
		two[i] = byte(7 + 9*rng.Intn(2))
	}
	add("two symbols", two)
	all := make([]byte, n)
	for i := range all {
		all[i] = byte(i*37 + i/256)
	}
	add("all 256 symbols", all)
	deep := deepCodeStream(n, 5)
	dp := make([]byte, n)
	for i, s := range deep {
		dp[i] = byte(s)
	}
	add("depth-15 codes", dp)
	return names, streams
}

// checkEncodeMatches encodes syms (as bytes when p is non-nil) with and
// without the caller histogram freq, on 1 and 4 workers, with a fresh and
// with the shared warm ctx, and fails unless every container is
// byte-equal to the oracle's, or both refuse the stream.
func checkEncodeMatches(t *testing.T, name string, ctx *arena.Ctx, p []byte, syms []uint16, alphabet int, freq []int64) {
	t.Helper()
	want, wantErr := encodeRef(syms, alphabet, freq)
	for _, d := range []*gpusim.Device{gpusim.New(1), dev} {
		for _, c := range []*arena.Ctx{nil, ctx} {
			var got []byte
			var err error
			if p != nil {
				got, err = EncodeBytesCtx(c, d, p, freq)
			} else {
				got, err = EncodeCtx(c, d, syms, alphabet, freq)
			}
			switch {
			case wantErr != nil && err == nil:
				t.Fatalf("%s (workers %d): oracle refuses (%v), kernel returned %d bytes", name, d.Workers(), wantErr, len(got))
			case wantErr == nil && err != nil:
				t.Fatalf("%s (workers %d): oracle encodes %d bytes, kernel fails: %v", name, d.Workers(), len(want), err)
			case wantErr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s (workers %d): container differs from the oracle's (%d vs %d bytes)", name, d.Workers(), len(got), len(want))
			}
		}
	}
}

// TestEncodeMatchesReference is the encode kernel's differential: on
// every stream, EncodeBytesCtx and EncodeCtx write exactly the oracle's
// container, or both refuse it.
func TestEncodeMatchesReference(t *testing.T) {
	ctx := arena.NewCtx()
	for _, n := range []int{0, 1, 2, 3, 4, 5, DefaultChunk - 1, DefaultChunk, DefaultChunk + 1, 3*DefaultChunk + 3} {
		names, streams := byteStreams(n)
		for i, p := range streams {
			name := fmt.Sprintf("%s, %d bytes", names[i], n)
			syms := bytes16(p)
			checkEncodeMatches(t, name, ctx, p, syms, 256, nil)
			checkEncodeMatches(t, name+", caller histogram", ctx, p, syms, 256, histogram(p, 256))
			if n == 3*DefaultChunk+3 && names[i] == "depth-15 codes" {
				lens, err := (&scratch{}).buildLengths(histogram(p, 256))
				if err != nil || slices.Max(lens) != MaxCodeLen {
					t.Fatalf("%s: longest code is not %d bits (%v); the depth-15 case tests nothing", name, MaxCodeLen, err)
				}
			}
		}
	}

	// uint16 streams: Lorenzo-like codes over alphabet 1026, a sparse
	// stream that reaches the top of a 65536-symbol alphabet, and one with
	// too many distinct symbols for 15-bit codes. The shared ctx then
	// encodes a smaller alphabet, whose out-of-alphabet symbol must read
	// the table's sentinel, not a code left by the 65536-symbol call.
	rng := rand.New(rand.NewSource(9))
	lorenzo := make([]uint16, 2*DefaultChunk+11)
	for i := range lorenzo {
		lorenzo[i] = uint16(513 + int(rng.NormFloat64()*3))
	}
	sparse := make([]uint16, DefaultChunk+5)
	for i := range sparse {
		sparse[i] = uint16(rng.Intn(39) * 1681)
		if rng.Intn(3) == 0 {
			sparse[i] = uint16(65535 - rng.Intn(300))
		}
	}
	crowded := make([]uint16, 1<<16)
	for i := range crowded {
		crowded[i] = uint16(i)
	}
	for _, tc := range []struct {
		name     string
		syms     []uint16
		alphabet int
	}{
		{"lorenzo codes, alphabet 1026", lorenzo, 1026},
		{"sparse, alphabet 65536", sparse, 1 << 16},
		{"65536 distinct symbols", crowded, 1 << 16},
	} {
		checkEncodeMatches(t, tc.name, ctx, nil, tc.syms, tc.alphabet, nil)
		checkEncodeMatches(t, tc.name+", caller histogram", ctx, nil, tc.syms, tc.alphabet, histogram(tc.syms, tc.alphabet))
	}
	oob := append([]uint16(nil), lorenzo[:5000]...)
	oob[4321] = 60000
	freq := histogram(lorenzo[:5000], 1026) // sums to 5000, misses 60000
	checkEncodeMatches(t, "out-of-alphabet symbol, caller histogram", ctx, nil, oob, 1026, freq)
	if _, err := EncodeCtx(ctx, dev, oob, 1026, freq); err == nil {
		t.Fatal("out-of-alphabet symbol with a sum-matching histogram accepted")
	}
}

// TestEncodeBytesCtxSteadyStateAllocs: a warm context encodes a byte
// stream with one allocation per op (the returned container) on a
// one-worker device, and with at most two more (the launch bookkeeping)
// on two workers; the same holds for uint16 streams through EncodeCtx.
func TestEncodeBytesCtxSteadyStateAllocs(t *testing.T) {
	p := skewedBytes(3*DefaultChunk+7, 22)
	freq := histogram(p, 256)
	syms := bytes16(p)
	for _, tc := range []struct {
		workers int
		limit   float64
	}{{1, 1}, {2, 3}} {
		d := gpusim.New(tc.workers)
		ctx := arena.NewCtx()
		for _, f := range [][]int64{nil, freq} {
			runs := map[string]func() error{
				"EncodeBytesCtx": func() error { _, err := EncodeBytesCtx(ctx, d, p, f); return err },
				"EncodeCtx":      func() error { _, err := EncodeCtx(ctx, d, syms, 256, f); return err },
			}
			for name, run := range runs {
				if err := run(); err != nil {
					t.Fatal(err)
				}
				n := testing.AllocsPerRun(10, func() {
					ctx.Reset()
					if err := run(); err != nil {
						t.Fatal(err)
					}
				})
				if n > tc.limit {
					t.Fatalf("warm %s on %d workers (caller histogram %v) allocates %v/op, want <= %v", name, tc.workers, f != nil, n, tc.limit)
				}
			}
		}
	}
}

// FuzzEncodeBytes runs the encode differential on arbitrary byte streams:
// with no histogram, the exact one, or the exact one with a count moved
// from symbol from to symbol to. The kernel and the oracle must both
// refuse the stream, or write equal containers that DecodeBytesCtx turns
// back into the stream.
func FuzzEncodeBytes(f *testing.F) {
	for _, n := range []int{0, 1, 5, 1000} {
		_, streams := byteStreams(n)
		for i, p := range streams {
			f.Add(p, byte(i), byte(128), byte(i))
		}
	}
	f.Add(skewedBytes(DefaultChunk+4, 3), byte(2), byte(128), byte(131))
	dev1 := gpusim.New(1)
	ctx := arena.NewCtx()
	f.Fuzz(func(t *testing.T, p []byte, mode, from, to byte) {
		var freq []int64
		switch mode % 3 {
		case 1:
			freq = histogram(p, 256)
		case 2:
			freq = histogram(p, 256)
			if freq[from] > 0 {
				freq[from]--
				freq[to]++
			}
		}
		want, wantErr := encodeRef(bytes16(p), 256, freq)
		got, err := EncodeBytesCtx(ctx, dev1, p, freq)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil {
				t.Fatalf("oracle (%d bytes, %v), kernel (%d bytes, %v); want both to refuse", len(want), wantErr, len(got), err)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kernel container (%d bytes) differs from the oracle's (%d bytes)", len(got), len(want))
		}
		dec, err := DecodeBytesCtx(nil, dev1, got)
		if err != nil || !bytes.Equal(dec, p) {
			t.Fatalf("container does not round-trip: %d bytes, %v", len(dec), err)
		}
	})
}
