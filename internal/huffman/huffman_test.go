package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

func roundTrip(t *testing.T, syms []uint16, alphabet int) {
	t.Helper()
	enc, err := EncodeCtx(nil, dev, syms, alphabet, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeCtx(nil, dev, enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("len %d != %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, dec[i], syms[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil, 256) }

func TestRoundTripSingleSymbol(t *testing.T) {
	syms := make([]uint16, 1000)
	roundTrip(t, syms, 256)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	syms := make([]uint16, 500)
	for i := range syms {
		syms[i] = uint16(i % 2)
	}
	roundTrip(t, syms, 2)
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint16, 200_000)
	for i := range syms {
		// Geometric-ish distribution centered at 128, like quant codes.
		v := 128
		for rng.Intn(2) == 0 && v < 255 {
			v++
		}
		syms[i] = uint16(v)
	}
	roundTrip(t, syms, 256)
}

func TestRoundTripUniform16Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]uint16, 50_000)
	for i := range syms {
		syms[i] = uint16(rng.Intn(1024))
	}
	roundTrip(t, syms, 1024)
}

func TestRoundTripCrossesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]uint16, DefaultChunk*2+777)
	for i := range syms {
		syms[i] = uint16(rng.Intn(8))
	}
	roundTrip(t, syms, 256)
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Highly skewed data must compress well below 1 byte/symbol.
	syms := make([]uint16, 100_000)
	rng := rand.New(rand.NewSource(4))
	for i := range syms {
		if rng.Intn(100) == 0 {
			syms[i] = uint16(rng.Intn(256))
		} else {
			syms[i] = 128
		}
	}
	enc, err := EncodeCtx(nil, dev, syms, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(syms)/4 {
		t.Fatalf("skewed data compressed to %d bytes (%.2f bits/sym)", len(enc), float64(len(enc))*8/float64(len(syms)))
	}
}

func TestEncodeBytesRoundTrip(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly: ")
	data = bytes.Repeat(data, 100)
	enc, err := EncodeBytesCtx(nil, dev, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBytesCtx(nil, dev, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("byte round trip mismatch")
	}
	if len(enc) >= len(data) {
		t.Fatalf("text did not compress: %d >= %d", len(enc), len(data))
	}
}

func TestSymbolOutsideAlphabet(t *testing.T) {
	if _, err := EncodeCtx(nil, dev, []uint16{300}, 256, nil); err == nil {
		t.Fatal("want error for out-of-alphabet symbol")
	}
}

func TestBadAlphabet(t *testing.T) {
	if _, err := EncodeCtx(nil, dev, nil, 0, nil); err == nil {
		t.Fatal("want error for alphabet 0")
	}
	if _, err := EncodeCtx(nil, dev, nil, 1<<17, nil); err == nil {
		t.Fatal("want error for oversized alphabet")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	syms := make([]uint16, 10_000)
	rng := rand.New(rand.NewSource(5))
	for i := range syms {
		syms[i] = uint16(rng.Intn(200))
	}
	enc, err := EncodeCtx(nil, dev, syms, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at various points must error, never panic.
	for _, cut := range []int{0, 1, 2, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeCtx(nil, dev, enc[:cut]); err == nil {
			t.Fatalf("truncated to %d bytes: want error", cut)
		}
	}
	// Bit flips in the header region must error or decode to something,
	// never panic.
	for i := 0; i < 20 && i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		DecodeCtx(nil, dev, bad) // must not panic
	}
}

func TestLengthLimiting(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; lengths must be capped.
	freq := make([]int64, 64)
	a, b := int64(1), int64(1)
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
		if a > 1<<40 {
			a = 1 << 40
		}
	}
	lens, err := (&scratch{}).buildLengths(freq)
	if err != nil {
		t.Fatal(err)
	}
	kraft := 0.0
	for _, l := range lens {
		if l > MaxCodeLen {
			t.Fatalf("length %d exceeds cap", l)
		}
		if l > 0 {
			kraft += 1 / float64(int(1)<<l)
		}
	}
	if kraft > 1.0000001 {
		t.Fatalf("Kraft sum %v > 1", kraft)
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	freq := []int64{10, 3, 1, 1, 7, 0, 2, 40}
	s := &scratch{}
	lens, err := s.buildLengths(freq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.buildDecodeTable(lens); err != nil {
		t.Fatalf("codes overlap: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc, err := EncodeBytesCtx(nil, dev, data, nil)
		if err != nil {
			return false
		}
		dec, err := DecodeBytesCtx(nil, dev, enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripDeepCodes drives symbols whose Fibonacci-like skew forces
// code lengths past tableBits, exercising the multi-symbol decoder's
// sub-table fallback alongside its one- and two-symbol primary probes.
func TestRoundTripDeepCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := make([]int, 40)
	a, b := 1, 1
	for i := range weights {
		weights[i] = a
		if a < 1<<28 {
			a, b = b, a+b
		}
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	syms := make([]uint16, 120_000)
	for i := range syms {
		r := rng.Intn(total)
		for s, w := range weights {
			if r < w {
				syms[i] = uint16(s)
				break
			}
			r -= w
		}
	}
	roundTrip(t, syms, 64)

	// The length set really must exceed the primary probe width, or this
	// test is not covering the sub-table path.
	s := &scratch{}
	freq := make([]int64, 64)
	for _, sym := range syms {
		freq[sym]++
	}
	lens, err := s.buildLengths(freq)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := uint8(0)
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	if int(maxLen) <= tableBits {
		t.Fatalf("max code length %d does not exceed tableBits %d; deep-code path untested", maxLen, tableBits)
	}
}

// TestMultiSymbolMatchesReference cross-checks the table-driven decoder
// against a naive bit-by-bit canonical decoder on random skews.
func TestMultiSymbolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		alphabet := 2 + rng.Intn(300)
		syms := make([]uint16, 3000)
		for i := range syms {
			v := rng.Intn(alphabet)
			if rng.Intn(4) > 0 {
				v = v % (1 + alphabet/8) // skew toward a small subset
			}
			syms[i] = uint16(v)
		}
		enc, err := EncodeCtx(nil, dev, syms, alphabet, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dec, err := DecodeCtx(nil, dev, enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reference decode: walk the canonical codes bit by bit.
		s := &scratch{}
		freq := make([]int64, alphabet)
		for _, sym := range syms {
			freq[sym]++
		}
		lens, err := s.buildLengths(freq)
		if err != nil {
			t.Fatal(err)
		}
		codes := s.canonicalCodes(lens)
		for i, want := range syms {
			if dec[i] != want {
				t.Fatalf("trial %d: symbol %d decoded as %d, want %d (len %d code %b)",
					trial, i, dec[i], want, codes[want].len, codes[want].bits)
			}
		}
	}
}

// TestDecodeCtxSteadyStateAllocs: a warm context decodes with at most one
// allocation per op (the launch bookkeeping), proving tables, outputs and
// chunk metadata all come from the reusable scratch.
func TestDecodeCtxSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	syms := make([]uint16, 100_000)
	for i := range syms {
		syms[i] = uint16(128 + int(rng.NormFloat64()*4))
	}
	enc, err := EncodeCtx(nil, dev, syms, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev1 := gpusim.New(1)
	ctx := arena.NewCtx()
	if _, err := DecodeCtx(ctx, dev1, enc); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := DecodeCtx(ctx, dev1, enc); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Fatalf("warm DecodeCtx allocates %v/op, want <= 1", n)
	}
}

// TestDecodeHostileChunkLen: a container declaring a 2^63-scale chunk
// length must fail cleanly instead of overflowing int and panicking on a
// negative slice bound (found by review; the overflow predates the
// multi-symbol decoder but the guards now catch it).
func TestDecodeHostileChunkLen(t *testing.T) {
	syms := make([]uint16, 100)
	enc, err := EncodeCtx(nil, dev, syms, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the chunk-length varint: header is alphabet, lens RLE,
	// nSyms, chunk, nChunks, then one chunk length. Rebuild the prefix to
	// find its offset.
	s := &scratch{}
	freq := make([]int64, 256)
	freq[0] = 100
	lens, err := s.buildLengths(freq)
	if err != nil {
		t.Fatal(err)
	}
	prefix := bitio.AppendUvarint(nil, 256)
	prefix = appendLengthsRLE(prefix, lens)
	prefix = bitio.AppendUvarint(prefix, 100)               // nSyms
	prefix = bitio.AppendUvarint(prefix, DefaultChunk)      // chunk
	prefix = bitio.AppendUvarint(prefix, 1)                 // nChunks
	hostile := bitio.AppendUvarint(prefix, uint64(1)<<63+1) // chunkLen
	hostile = append(hostile, enc[len(hostile):]...)
	if _, err := DecodeCtx(nil, dev, hostile); err == nil {
		t.Fatal("hostile chunk length decoded without error")
	}
}

// TestEncodeCtxRejectsMismatchedHistogram: a caller-supplied histogram
// that disagrees with the symbol stream must be rejected, not trusted.
func TestEncodeCtxRejectsMismatchedHistogram(t *testing.T) {
	syms := []uint16{1, 2, 3}
	short := make([]int64, 256)
	short[1] = 1 // sums to 1, stream has 3
	if _, err := EncodeCtx(nil, dev, syms, 256, short); err == nil {
		t.Fatal("mismatched histogram accepted")
	}
	neg := make([]int64, 256)
	neg[1], neg[2] = 5, -2
	if _, err := EncodeCtx(nil, dev, syms, 256, neg); err == nil {
		t.Fatal("negative histogram accepted")
	}
	if _, err := EncodeCtx(nil, dev, syms, 256, make([]int64, 7)); err == nil {
		t.Fatal("wrong-length histogram accepted")
	}
	// Sum matches but the per-symbol counts disagree with the stream:
	// symbol 3 would get a zero-length code and vanish from the payload.
	skewed := make([]int64, 256)
	skewed[1], skewed[2] = 2, 1
	if _, err := EncodeCtx(nil, dev, syms, 256, skewed); err == nil {
		t.Fatal("per-symbol-mismatched histogram accepted")
	}
	// Sum matches but a symbol lies outside the alphabet: must error, not
	// panic indexing the code table inside a launch worker.
	oob := make([]int64, 256)
	oob[0] = 2
	if _, err := EncodeCtx(nil, dev, []uint16{700, 700}, 256, oob); err == nil {
		t.Fatal("out-of-alphabet symbol with matching histogram sum accepted")
	}
}

// TestEncodeBytesCtxRejectsMismatchedHistogram is the byte-path twin of
// TestEncodeCtxRejectsMismatchedHistogram: a histogram whose sum matches
// the stream but which gives a used byte a zero-length code must fail the
// encode, never return a container that cannot be decoded. The stray
// byte sits in the first chunk, in a full block of the last chunk, and in
// the last chunk's tail, which is shorter than a block and coded one
// symbol per store.
func TestEncodeBytesCtxRejectsMismatchedHistogram(t *testing.T) {
	n := 2*DefaultChunk + encBlock + 5 // the last chunk: one block, a tail of 5
	for _, at := range []int{0, 2*DefaultChunk + 1, n - 1} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i % 3)
		}
		p[at] = 9
		freq := histogram(p, 256)
		freq[9]-- // sum still matches; byte 9 gets no code
		freq[0]++
		for _, d := range []*gpusim.Device{gpusim.New(1), dev} {
			for _, ctx := range []*arena.Ctx{nil, arena.NewCtx()} {
				if blob, err := EncodeBytesCtx(ctx, d, p, freq); err == nil {
					t.Fatalf("byte 9 at %d (workers %d): zero-length code accepted, %d-byte container", at, d.Workers(), len(blob))
				}
			}
		}
	}
	if _, err := EncodeBytesCtx(nil, dev, []byte{1, 2}, make([]int64, 255)); err == nil {
		t.Fatal("wrong-length histogram accepted")
	}
}
