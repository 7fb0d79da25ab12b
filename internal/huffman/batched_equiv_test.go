package huffman

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/interp"
	"repro/internal/quant"
)

// decodeBytesRef is the reference byte decoder, kept as the oracle of
// DecodeBytesCtx's multi-symbol kernel: decode uint16 symbols with
// DecodeCtx, then widen them one by one, rejecting any symbol above 255.
func decodeBytesRef(ctx *arena.Ctx, dev *gpusim.Device, data []byte) ([]byte, error) {
	syms, err := DecodeCtx(ctx, dev, data)
	if err != nil {
		return nil, err
	}
	out := ctx.Bytes(len(syms))
	for i, s := range syms {
		if s > 255 {
			return nil, ErrCorrupt
		}
		out[i] = byte(s)
	}
	return out, nil
}

// encodeWithChunk builds a container like EncodeCtx but with an arbitrary
// chunk size, so tests can reach chunks shorter than the byte kernel's run.
func encodeWithChunk(syms []uint16, alphabet, chunk int) []byte {
	s := &scratch{}
	freq := make([]int64, alphabet)
	for _, sym := range syms {
		freq[sym]++
	}
	lens, err := s.buildLengths(freq)
	if err != nil {
		panic(err)
	}
	return assemble(syms, lens, chunk)
}

// assemble writes a container for syms under the canonical codes of lens
// (which may be an incomplete code set), chunk symbols per chunk.
func assemble(syms []uint16, lens []uint8, chunk int) []byte {
	codes := (&scratch{}).canonicalCodes(lens)
	var chunks [][]byte
	for lo := 0; lo < len(syms); lo += chunk {
		var w bitio.Writer
		for _, sym := range syms[lo:min(lo+chunk, len(syms))] {
			w.WriteBits(uint64(codes[sym].bits), uint(codes[sym].len))
		}
		chunks = append(chunks, w.Bytes())
	}
	out := bitio.AppendUvarint(nil, uint64(len(lens)))
	out = appendLengthsRLE(out, lens)
	out = bitio.AppendUvarint(out, uint64(len(syms)))
	out = bitio.AppendUvarint(out, uint64(chunk))
	out = bitio.AppendUvarint(out, uint64(len(chunks)))
	for _, c := range chunks {
		out = bitio.AppendUvarint(out, uint64(len(c)))
	}
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// checkDecodeBytesMatches decodes blob with the fast kernel and the oracle
// on 1 and 4 workers, with and without a context, and fails unless every
// result is byte-equal to the oracle's or both are ErrCorrupt.
func checkDecodeBytesMatches(t *testing.T, name string, blob []byte) (corrupt bool) {
	t.Helper()
	want, wantErr := decodeBytesRef(nil, dev, blob)
	if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
		t.Fatalf("%s: oracle error %v is not ErrCorrupt", name, wantErr)
	}
	for _, d := range []*gpusim.Device{gpusim.New(1), dev} {
		for _, ctx := range []*arena.Ctx{nil, arena.NewCtx()} {
			got, err := DecodeBytesCtx(ctx, d, blob)
			switch {
			case wantErr != nil && !errors.Is(err, ErrCorrupt):
				t.Fatalf("%s (workers %d): oracle says ErrCorrupt, kernel returned (%d bytes, %v)", name, d.Workers(), len(got), err)
			case wantErr == nil && err != nil:
				t.Fatalf("%s (workers %d): oracle decodes %d bytes, kernel fails: %v", name, d.Workers(), len(want), err)
			case wantErr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s (workers %d): kernel output differs from the oracle", name, d.Workers())
			}
		}
	}
	return wantErr != nil
}

// referenceSkews are the random skewed streams of
// TestMultiSymbolMatchesReference: alphabets of 2–301 symbols, three in
// four draws folded onto a small subset.
func referenceSkews() (streams [][]uint16, alphabets []int) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		alphabet := 2 + rng.Intn(300)
		syms := make([]uint16, 3000)
		for i := range syms {
			v := rng.Intn(alphabet)
			if rng.Intn(4) > 0 {
				v = v % (1 + alphabet/8)
			}
			syms[i] = uint16(v)
		}
		streams = append(streams, syms)
		alphabets = append(alphabets, alphabet)
	}
	return streams, alphabets
}

// levelOrderCodes returns the level-ordered hi-cr quantization codes of a
// datagen field, the byte stream the CR-preferred pipeline entropy-codes.
func levelOrderCodes(tb testing.TB, name string, dims []int) []byte {
	tb.Helper()
	f, err := datagen.Generate(name, dims, 1)
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := f.Data[0], f.Data[0]
	for _, v := range f.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	cfg := interp.HiConfig()
	res, err := interp.CompressCtx(nil, dev, f.Data, interp.NewGrid(dims), cfg, 1e-3*float64(hi-lo))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, len(res.Codes))
	quant.Gather(dev, dims, cfg.AnchorStride, res.Codes, out)
	return out
}

// deepCodeStream draws symbols from Fibonacci-like weights, which force
// code lengths past tableBits (up to MaxCodeLen).
func deepCodeStream(n int, seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
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
	syms := make([]uint16, n)
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
	return syms
}

// longCodes is a complete byte code set, lengths 1–8 for symbols 0–7
// and MaxCodeLen for symbols 8–135, with a stream that draws a 15-bit
// code 30% of the time: every reader of bits past the probe (sub-tables,
// the refill threshold) runs often, which a frequency-built code would
// never do.
func longCodes(n int, seed int64) ([]uint16, []uint8) {
	lens := make([]uint8, 136)
	for i := range lens {
		lens[i] = MaxCodeLen
		if i < 8 {
			lens[i] = uint8(i + 1)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	syms := make([]uint16, n)
	for i := range syms {
		syms[i] = uint16(rng.Intn(8))
		if rng.Intn(10) < 3 {
			syms[i] = uint16(8 + rng.Intn(128))
		}
	}
	return syms, lens
}

// differentialCorpus returns the named containers the byte-kernel
// differential runs over; FuzzDecodeBytes seeds from the same set.
func differentialCorpus(tb testing.TB) (names []string, blobs [][]byte) {
	add := func(name string, blob []byte) {
		names = append(names, name)
		blobs = append(blobs, blob)
	}
	enc := func(syms []uint16, alphabet int) []byte {
		blob, err := EncodeCtx(nil, dev, syms, alphabet, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return blob
	}

	streams, alphabets := referenceSkews()
	for i, syms := range streams {
		add(fmt.Sprintf("skew %d (alphabet %d)", i, alphabets[i]), enc(syms, alphabets[i]))
		// The same skew folded into a byte alphabet decodes successfully.
		bs := make([]uint16, len(syms))
		for j, s := range syms {
			bs[j] = s & 0xff
		}
		add(fmt.Sprintf("skew %d folded to bytes", i), enc(bs, 256))
	}
	for _, name := range []string{"miranda", "scale"} {
		codes := levelOrderCodes(tb, name, []int{8, 64, 64})
		blob, err := EncodeBytesCtx(nil, dev, codes, nil)
		if err != nil {
			tb.Fatal(err)
		}
		add(name+" level-order codes", blob)
	}
	add("1-symbol alphabet", enc(make([]uint16, 1000), 1))
	add("1 used symbol of 256", enc(bytes16(bytes.Repeat([]byte{200}, 777)), 256))
	two := make([]uint16, 1001)
	for i := range two {
		two[i] = uint16(i % 3 / 2)
	}
	add("2-symbol alphabet", enc(two, 2))
	add("deep codes", enc(deepCodeStream(50_000, 7), 64))
	syms, lens := longCodes(20_000, 4)
	add("many 15-bit codes", assemble(syms, lens, 1000))
	rng := rand.New(rand.NewSource(3))
	for chunk := 1; chunk <= 9; chunk++ {
		syms := make([]uint16, 5*chunk+chunk/2)
		for i := range syms {
			syms[i] = uint16(rng.Intn(1 + chunk%4))
		}
		add(fmt.Sprintf("chunks of %d", chunk), encodeWithChunk(syms, 256, chunk))
	}
	add("deep codes, chunks of 7", encodeWithChunk(deepCodeStream(500, 8), 64, 7))

	// Damaged and hostile containers.
	base := encodeWithChunk(bytes16(levelOrderCodes(tb, "scale", []int{4, 32, 32})), 256, 1000)
	for i := 0; i < 24; i++ {
		bad := append([]byte(nil), base...)
		bit := len(base)*8 - 1 - i*97
		bad[bit/8] ^= 1 << (bit % 8)
		add(fmt.Sprintf("flipped payload bit %d", bit), bad)
	}
	add("truncated chunk", truncateLastChunk(tb, encodeWithChunk(deepCodeStream(300, 9), 64, 100)))
	add("truncated byte chunk", truncateLastChunk(tb, base))
	// Kraft sum 3/4: code 11 has no symbol, so random payload bits reach
	// invalid table entries.
	incomplete := assemble([]uint16{0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0}, []uint8{1, 2, 0, 0}, 64)
	add("incomplete code set", incomplete)
	hostile := append([]byte(nil), incomplete...)
	hostile[len(hostile)-1] = 0xff
	add("incomplete code set, unused code in payload", hostile)
	big := make([]uint16, 4000)
	for i := range big {
		big[i] = uint16(rng.Intn(8))
	}
	big[3777] = 299
	add("alphabet 300 emitting symbol 299", enc(big, 300))
	add("alphabet 300, symbols all below 256", enc(big[:3000], 300))
	return names, blobs
}

func bytes16(p []byte) []uint16 {
	out := make([]uint16, len(p))
	for i, b := range p {
		out[i] = uint16(b)
	}
	return out
}

// truncateLastChunk shortens the last chunk's payload by one byte and its
// directory entry to match, so that chunk runs out of bits mid-stream.
func truncateLastChunk(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	s := &scratch{}
	if _, _, err := s.parseContainer(blob); err != nil {
		tb.Fatal(err)
	}
	n := len(s.starts)
	last := s.chunkLens[n-1]
	// The directory ends where the first chunk starts; rewrite the last
	// length varint, which precedes it.
	dirEnd := s.starts[0]
	lenAt := dirEnd - bitio.UvarintLen(uint64(last))
	out := append([]byte(nil), blob[:lenAt]...)
	out = bitio.AppendUvarint(out, uint64(last-1))
	out = append(out, blob[dirEnd:len(blob)-1]...)
	return out
}

// TestDecodeBytesMatchesReference is the byte kernel's differential: on
// every corpus container, DecodeBytesCtx returns exactly the oracle's
// bytes, or both return ErrCorrupt.
func TestDecodeBytesMatchesReference(t *testing.T) {
	names, blobs := differentialCorpus(t)
	corrupt := 0
	for i, blob := range blobs {
		if checkDecodeBytesMatches(t, names[i], blob) {
			corrupt++
		}
	}
	// Both verdicts must really be exercised.
	if corrupt == 0 || corrupt == len(blobs) {
		t.Fatalf("%d of %d corpus containers are corrupt; want a mix", corrupt, len(blobs))
	}
	for i, name := range names {
		want := name == "truncated chunk" || name == "truncated byte chunk" ||
			name == "incomplete code set, unused code in payload" || name == "alphabet 300 emitting symbol 299"
		if _, err := decodeBytesRef(nil, dev, blobs[i]); want && err == nil {
			t.Fatalf("%s: decodes without error; the case does not test what it names", name)
		}
	}
}

// TestByteTableRuns pins the byte table against the primary table: every
// run is the greedy code-by-code decode of its probe, capped at maxRun
// symbols and at the probe's width.
func TestByteTableRuns(t *testing.T) {
	streams, alphabets := referenceSkews()
	streams = append(streams, deepCodeStream(5000, 1), make([]uint16, 10))
	alphabets = append(alphabets, 64, 1)
	full := 0
	for i, syms := range streams {
		s := &scratch{}
		freq := make([]int64, alphabets[i])
		for _, sym := range syms {
			freq[sym]++
		}
		lens, err := s.buildLengths(freq)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.buildDecodeTable(lens)
		if err != nil {
			t.Fatal(err)
		}
		tab.buildByteTable()
		codes := s.canonicalCodes(lens)
		for v := range tab.bytes {
			n, total := int(tab.info[v]>>8), uint(tab.info[v]&0xff)
			used := uint(0)
			for k := 0; k < n; k++ {
				sym := int(tab.bytes[v] >> (8 * k) & 0xff)
				cd := codes[sym]
				if cd.len == 0 || uint(v>>used)&(1<<cd.len-1) != uint(cd.bits) {
					t.Fatalf("stream %d probe %#x: run symbol %d is %d, which is not the code at bit %d", i, v, k, sym, used)
				}
				used += uint(cd.len)
			}
			if n == 0 {
				if total != noRun {
					t.Fatalf("stream %d probe %#x: empty run has total %d, want %d", i, v, total, noRun)
				}
				continue
			}
			if used != total || total > tableBits {
				t.Fatalf("stream %d probe %#x: run total %d, codes sum to %d", i, v, total, used)
			}
			if n == maxRun {
				full++
			}
		}
	}
	if full == 0 {
		t.Fatal("no probe holds a full run; the 8-symbol store is untested")
	}
}

// TestDecodeBytesCtxSteadyStateAllocs mirrors TestDecodeCtxSteadyStateAllocs
// for the byte kernel: a warm context decodes with at most one allocation
// per op, so the byte table and the output come from reusable scratch.
func TestDecodeBytesCtxSteadyStateAllocs(t *testing.T) {
	data := skewedBytes(100_000, 21)
	enc, err := EncodeBytesCtx(nil, dev, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev1 := gpusim.New(1)
	ctx := arena.NewCtx()
	if _, err := DecodeBytesCtx(ctx, dev1, enc); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		ctx.Reset()
		if _, err := DecodeBytesCtx(ctx, dev1, enc); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Fatalf("warm DecodeBytesCtx allocates %v/op, want <= 1", n)
	}
}

// FuzzDecodeBytes runs the byte-kernel differential on arbitrary
// containers, seeded from the differential corpus.
func FuzzDecodeBytes(f *testing.F) {
	_, blobs := differentialCorpus(f)
	for _, blob := range blobs {
		f.Add(blob)
	}
	dev1 := gpusim.New(1)
	f.Fuzz(func(t *testing.T, blob []byte) {
		want, wantErr := decodeBytesRef(nil, dev1, blob)
		got, err := DecodeBytesCtx(nil, dev1, blob)
		if wantErr != nil {
			if !errors.Is(wantErr, ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("oracle error %v, kernel (%d bytes, %v); want ErrCorrupt from both", wantErr, len(got), err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("oracle decodes %d bytes, kernel returned (%d bytes, %v) that differ", len(want), len(got), err)
		}
	})
}
