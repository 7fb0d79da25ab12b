package lccodec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

var allComponents = []string{
	"HF", "BIT1", "DIFFMS1", "CLOG1",
	"RRE1", "RRE2", "RRE4", "RRE8",
	"RZE1", "RZE2", "RZE4",
	"TCMS1", "TCMS2", "TCMS4", "TCMS8",
	"TUPLQ1", "TUPLD1", "TUPLD2", "TUPLQ2",
}

func testVectors(rng *rand.Rand) [][]byte {
	runs := make([]byte, 10_000)
	for i := range runs {
		runs[i] = byte(i / 500)
	}
	sparse := make([]byte, 10_000)
	for i := 0; i < len(sparse); i += 97 {
		sparse[i] = byte(rng.Intn(255) + 1)
	}
	random := make([]byte, 4097)
	rng.Read(random)
	skewed := make([]byte, 20_000)
	for i := range skewed {
		if rng.Intn(20) == 0 {
			skewed[i] = byte(rng.Intn(256))
		} else {
			skewed[i] = 128
		}
	}
	return [][]byte{
		nil,
		{0},
		{1, 2, 3},
		make([]byte, 1000), // all zeros
		runs, sparse, random, skewed,
		bytes.Repeat([]byte{0xAA, 0xAA, 0xAA, 0xAA}, 2000),
		random[:7], // not a multiple of any width
	}
}

func TestComponentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs := testVectors(rng)
	for _, name := range allComponents {
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("Name() = %q, want %q", c.Name(), name)
		}
		for vi, v := range vecs {
			enc, err := c.Encode(nil, dev, v)
			if err != nil {
				t.Fatalf("%s vec %d encode: %v", name, vi, err)
			}
			dec, err := c.Decode(nil, dev, enc)
			if err != nil {
				t.Fatalf("%s vec %d decode: %v", name, vi, err)
			}
			if !bytes.Equal(dec, v) {
				t.Fatalf("%s vec %d: round trip mismatch (len %d vs %d)", name, vi, len(dec), len(v))
			}
		}
	}
}

func TestUnknownComponent(t *testing.T) {
	if _, err := New("WAT9"); err == nil {
		t.Fatal("want error for unknown component")
	}
}

func TestRRECompressesRuns(t *testing.T) {
	data := bytes.Repeat([]byte{42}, 100_000)
	c, _ := New("RRE1")
	enc, err := c.Encode(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(data)/50 {
		t.Fatalf("constant run compressed to only %d bytes", len(enc))
	}
}

func TestRZECompressesZeros(t *testing.T) {
	data := make([]byte, 100_000)
	for i := 0; i < len(data); i += 1000 {
		data[i] = 7
	}
	c, _ := New("RZE1")
	enc, err := c.Encode(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(data)/20 {
		t.Fatalf("sparse data compressed to only %d bytes", len(enc))
	}
}

func TestTCMSCentersSmallMagnitudes(t *testing.T) {
	// Bytes near 128 (the quant-code zero point after offset... here: values
	// near 0 in two's complement, i.e. 0, 255, 1, 254) must map to small
	// values with mostly-zero high bits.
	c, _ := New("TCMS1")
	enc, err := c.Encode(nil, dev, []byte{0, 255, 1, 254, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 4}
	if !bytes.Equal(enc, want) {
		t.Fatalf("TCMS1 = %v, want %v", enc, want)
	}
}

func TestTCMS8MatchesPaperFormula(t *testing.T) {
	// §5.2.3: (word << 1) ^ (word >> 63) on 8-byte words.
	src := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF} // -1
	c, _ := New("TCMS8")
	enc, _ := c.Encode(nil, dev, src)
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0} // zigzag(-1) = 1
	if !bytes.Equal(enc, want) {
		t.Fatalf("TCMS8(-1) = %v, want %v", enc, want)
	}
}

func TestBitShuffleGroupsPlanes(t *testing.T) {
	// All inputs with only bit 0 set: after shuffling, plane 0 is all ones
	// (first n/8 bytes 0xFF), everything else zero.
	n := 4096
	src := bytes.Repeat([]byte{1}, n)
	c, _ := New("BIT1")
	enc, _ := c.Encode(nil, dev, src)
	for i := 0; i < n/8; i++ {
		if enc[i] != 0xFF {
			t.Fatalf("plane 0 byte %d = %#x", i, enc[i])
		}
	}
	for i := n / 8; i < n; i++ {
		if enc[i] != 0 {
			t.Fatalf("plane >0 byte %d = %#x", i, enc[i])
		}
	}
}

func TestCLOGPacksSmallValues(t *testing.T) {
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i % 4) // needs 2 bits
	}
	c, _ := New("CLOG1")
	enc, err := c.Encode(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(data)/3 {
		t.Fatalf("2-bit data packed to %d bytes", len(enc))
	}
}

func TestPipelineParse(t *testing.T) {
	p, err := Parse("HF-RRE4-TCMS8-RZE1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 4 {
		t.Fatalf("stages = %d", len(p.Stages))
	}
	// '+' separator as in the paper's figure labels.
	p2, err := Parse("HF+RRE1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Stages) != 2 {
		t.Fatalf("stages = %d", len(p2.Stages))
	}
	if _, err := Parse("HF-XXX"); err == nil {
		t.Fatal("want error")
	}
	if _, err := Parse(""); err == nil {
		t.Fatal("want error for empty pipeline")
	}
}

func TestHiPipelinesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Quant-code-like stream: mostly 128 with small deviations.
	data := make([]byte, 123_457)
	for i := range data {
		data[i] = byte(128 + rng.NormFloat64()*2)
	}
	for _, p := range []*Pipeline{HiCR(), HiTP()} {
		enc, err := p.EncodeCtx(nil, dev, data)
		if err != nil {
			t.Fatalf("%s: %v", p.Spec, err)
		}
		dec, err := p.DecodeCtx(nil, dev, enc)
		if err != nil {
			t.Fatalf("%s: %v", p.Spec, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%s: round trip mismatch", p.Spec)
		}
		if len(enc) >= len(data)/2 {
			t.Fatalf("%s: quant codes compressed to %d/%d", p.Spec, len(enc), len(data))
		}
	}
}

func TestHiCRBeatsHuffmanAloneOnRuns(t *testing.T) {
	// The motivation of §5.2: Huffman floors at 1 bit/symbol; the reducing
	// stages go below it on run-heavy data.
	data := make([]byte, 200_000)
	for i := range data {
		data[i] = 128
	}
	for i := 0; i < len(data); i += 1009 {
		data[i] = byte(120 + i%16)
	}
	hfOnly := MustParse("HF")
	encHF, err := hfOnly.EncodeCtx(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	encCR, err := HiCR().EncodeCtx(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(encCR) >= len(encHF) {
		t.Fatalf("HiCR (%d) should beat HF alone (%d) on run-heavy data", len(encCR), len(encHF))
	}
}

func TestDecodeCorruptNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 5000)
	rng.Read(data)
	for _, spec := range []string{"RRE1", "RZE1", "CLOG1", "HF-RRE4-TCMS8-RZE1", "TCMS1-BIT1-RRE1"} {
		p := MustParse(spec)
		enc, err := p.EncodeCtx(nil, dev, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			p.DecodeCtx(nil, dev, enc[:cut]) // must not panic
		}
		for trial := 0; trial < 30; trial++ {
			bad := append([]byte(nil), enc...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			p.DecodeCtx(nil, dev, bad) // must not panic
		}
	}
}

// TestDecodeHostileLengthsNoPanic locks the wire-length caps: a stream
// declaring a near-2^64 original length used to overflow int conversion
// into a negative slice bound and panic (found by FuzzDecompress; the
// crasher lives on as cuszhi/testdata/fuzz corpus entry ed65e944…).
func TestDecodeHostileLengthsNoPanic(t *testing.T) {
	huge := bitio.AppendUvarint(nil, 1<<63+1<<40+5) // origLen far past any cap
	huge = bitio.AppendUvarint(huge, 4)             // bmLen
	huge = append(huge, 0, 1, 2, 3, 4, 5, 6, 7)
	for _, spec := range []string{"RRE1", "RRE4", "RZE1", "CLOG1"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(nil, dev, huge); err == nil {
			t.Fatalf("%s: hostile origLen decoded without error", spec)
		}
	}
	// And a bitmap length that overflows int must be refused, not sliced.
	badBM := bitio.AppendUvarint(nil, 64)       // plausible origLen
	badBM = bitio.AppendUvarint(badBM, 1<<63+9) // bmLen overflows int
	badBM = append(badBM, make([]byte, 32)...)
	for _, spec := range []string{"RRE1", "RZE1"} {
		c, _ := New(spec)
		if _, err := c.Decode(nil, dev, badBM); err == nil {
			t.Fatalf("%s: hostile bmLen decoded without error", spec)
		}
	}
}

func TestComponentsRoundTripProperty(t *testing.T) {
	for _, name := range []string{"RRE1", "RZE1", "TCMS1", "BIT1", "DIFFMS1", "CLOG1", "TUPLQ1"} {
		c, _ := New(name)
		f := func(data []byte) bool {
			enc, err := c.Encode(nil, dev, data)
			if err != nil {
				return false
			}
			dec, err := c.Decode(nil, dev, enc)
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRecursiveBitmapActuallyRecurses(t *testing.T) {
	// A long constant region produces an all-zero bitmap that should be
	// recursively squeezed: output must be far below bitmap size (n/8).
	data := bytes.Repeat([]byte{9}, 1<<20)
	c, _ := New("RRE1")
	enc, err := c.Encode(nil, dev, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > (1<<20)/64 {
		t.Fatalf("bitmap not recursively compressed: %d bytes", len(enc))
	}
}
