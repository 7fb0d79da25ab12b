package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter(64)
	w.WriteBits(0x5, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(1, 1)
	w.WriteBits(0xFFFFFFFFFFFFFFFF, 64)
	w.WriteBits(0, 0)
	w.WriteBits(0x12345678, 31)
	r := NewReader(w.Bytes())
	for _, tc := range []struct {
		n    uint
		want uint64
	}{{3, 0x5}, {16, 0xABCD}, {1, 1}, {64, 0xFFFFFFFFFFFFFFFF}, {31, 0x12345678}} {
		got, err := r.ReadBits(tc.n)
		if err != nil {
			t.Fatalf("ReadBits(%d): %v", tc.n, err)
		}
		if got != tc.want {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", tc.n, got, tc.want)
		}
	}
}

func TestWriteBitSequence(t *testing.T) {
	w := NewWriter(0)
	bits := make([]uint, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range bits {
		bits[i] = uint(rng.Intn(2))
		w.WriteBit(bits[i])
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestRoundTripRandomWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, 200)
		w := NewWriter(0)
		for i := range items {
			n := uint(rng.Intn(65))
			v := rng.Uint64()
			if n < 64 {
				v &= (1 << n) - 1
			}
			items[i] = item{v, n}
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil {
				t.Fatalf("trial %d item %d: %v", trial, i, err)
			}
			if got != it.v {
				t.Fatalf("trial %d item %d: got %#x want %#x (n=%d)", trial, i, got, it.v, it.n)
			}
		}
	}
}

func TestWriteBytesAligned(t *testing.T) {
	w := NewWriter(0)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteBits(0xF, 4)
	w.Align()
	w.WriteBytes([]byte{9, 8})
	r := NewReader(w.Bytes())
	got, err := r.ReadBytes(3)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("ReadBytes = %v, %v", got, err)
	}
	v, _ := r.ReadBits(4)
	if v != 0xF {
		t.Fatalf("nibble = %#x", v)
	}
	r.Align()
	got, err = r.ReadBytes(2)
	if err != nil || !bytes.Equal(got, []byte{9, 8}) {
		t.Fatalf("ReadBytes after align = %v, %v", got, err)
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b101, 3)
	w.WriteBytes([]byte{0xAB, 0xCD})
	r := NewReader(w.Bytes())
	v, _ := r.ReadBits(3)
	if v != 0b101 {
		t.Fatalf("prefix = %#b", v)
	}
	b1, _ := r.ReadBits(8)
	b2, _ := r.ReadBits(8)
	if b1 != 0xAB || b2 != 0xCD {
		t.Fatalf("bytes = %#x %#x", b1, b2)
	}
}

func TestShortStream(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrShortStream {
		t.Fatalf("want ErrShortStream, got %v", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBit(); err != ErrShortStream {
		t.Fatalf("want ErrShortStream, got %v", err)
	}
	r3 := NewReader([]byte{1, 2})
	if _, err := r3.ReadBytes(3); err == nil {
		t.Fatal("want error reading past end")
	}
}

func TestBitLenAndRemaining(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	b := w.Bytes()
	if len(b) != 2 {
		t.Fatalf("len = %d", len(b))
	}
	r := NewReader(b)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining after read = %d", r.Remaining())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0x1, 1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 1 {
		t.Fatalf("after reset: %v", b)
	}
}

func TestUvarint(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, v := range cases {
		buf := AppendUvarint(nil, v)
		got, n := Uvarint(buf)
		if n != len(buf) || got != v {
			t.Fatalf("Uvarint(%d): got %d, n=%d len=%d", v, got, n, len(buf))
		}
		if UvarintLen(v) != len(buf) {
			t.Fatalf("UvarintLen(%d) = %d, AppendUvarint wrote %d bytes", v, UvarintLen(v), len(buf))
		}
	}
	if _, n := Uvarint([]byte{0x80, 0x80}); n != 0 {
		t.Fatal("truncated varint should return n=0")
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(x int64) bool { return UnZigZag(ZigZag(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes map to small codes.
	for _, tc := range []struct {
		x int64
		u uint64
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}} {
		if ZigZag(tc.x) != tc.u {
			t.Fatalf("ZigZag(%d) = %d, want %d", tc.x, ZigZag(tc.x), tc.u)
		}
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widthSeed uint8) bool {
		w := NewWriter(0)
		n := uint(widthSeed%16) + 1
		for _, v := range vals {
			w.WriteBits(uint64(v)&((1<<n)-1), n)
		}
		r := NewReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadBits(n)
			if err != nil || got != uint64(v)&((1<<n)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// packedRef writes vals per-value with WriteBits — the reference the packed
// writers must match bit-for-bit.
func packedRef(vals []uint64, width uint, pre, post uint) []byte {
	w := NewWriter(0)
	w.WriteBits(0x2A, pre)
	for _, v := range vals {
		w.WriteBits(v, width)
	}
	w.WriteBits(0x15, post)
	return w.Bytes()
}

func TestWritePackedBytesMatchesWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for width := uint(1); width <= 8; width++ {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100} {
			for _, pre := range []uint{0, 3, 13} {
				vals := make([]byte, n)
				ref := make([]uint64, n)
				for i := range vals {
					vals[i] = byte(rng.Uint64())
					ref[i] = uint64(vals[i]) & (1<<width - 1)
				}
				w := NewWriter(0)
				w.WriteBits(0x2A, pre)
				w.WritePackedBytes(vals, width)
				w.WriteBits(0x15, 5)
				if got, want := w.Bytes(), packedRef(ref, width, pre, 5); !bytes.Equal(got, want) {
					t.Fatalf("width %d n %d pre %d: packed bytes differ", width, n, pre)
				}
			}
		}
	}
}

func TestWritePacked64MatchesWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, width := range []uint{1, 2, 3, 6, 7, 9, 16, 21, 31, 32, 33, 63, 64} {
		for _, n := range []int{0, 1, 2, 5, 8, 63, 64, 65} {
			vals := make([]uint64, n)
			ref := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64()
				if width < 64 {
					ref[i] = vals[i] & (1<<width - 1)
				} else {
					ref[i] = vals[i]
				}
			}
			w := NewWriter(0)
			w.WriteBits(0x2A, 11)
			w.WritePacked64(vals, width)
			w.WriteBits(0x15, 5)
			if got, want := w.Bytes(), packedRef(ref, width, 11, 5); !bytes.Equal(got, want) {
				t.Fatalf("width %d n %d: packed uint64 differ", width, n)
			}
		}
	}
}

func TestReadPackedBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for width := uint(1); width <= 8; width++ {
		for _, n := range []int{0, 1, 7, 8, 9, 100} {
			for _, pre := range []uint{0, 3} {
				vals := make([]byte, n)
				for i := range vals {
					vals[i] = byte(rng.Uint64()) & (1<<width - 1)
				}
				w := NewWriter(0)
				w.WriteBits(0x2A, pre)
				w.WritePackedBytes(vals, width)
				w.WriteBits(0x155, 9)
				r := NewReader(w.Bytes())
				if _, err := r.ReadBits(pre); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, n)
				if err := r.ReadPackedBytes(got, width); err != nil {
					t.Fatalf("width %d n %d pre %d: %v", width, n, pre, err)
				}
				if !bytes.Equal(got, vals) {
					t.Fatalf("width %d n %d pre %d: values differ", width, n, pre)
				}
				if tail, err := r.ReadBits(9); err != nil || tail != 0x155 {
					t.Fatalf("width %d n %d pre %d: tail %#x err %v", width, n, pre, tail, err)
				}
			}
		}
	}
}

func TestReadPacked64RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, width := range []uint{1, 5, 9, 17, 32, 33, 63, 64} {
		for _, n := range []int{0, 1, 8, 33} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64()
				if width < 64 {
					vals[i] &= 1<<width - 1
				}
			}
			w := NewWriter(0)
			w.WriteBits(0x5, 3)
			w.WritePacked64(vals, width)
			w.WriteBits(0x155, 9)
			r := NewReader(w.Bytes())
			if _, err := r.ReadBits(3); err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, n)
			if err := r.ReadPacked64(got, width); err != nil {
				t.Fatalf("width %d n %d: %v", width, n, err)
			}
			for i := range got {
				if got[i] != vals[i] {
					t.Fatalf("width %d n %d: value %d = %#x want %#x", width, n, i, got[i], vals[i])
				}
			}
			if tail, err := r.ReadBits(9); err != nil || tail != 0x155 {
				t.Fatalf("width %d n %d: tail %#x err %v", width, n, tail, err)
			}
		}
	}
}

func TestReadPackedShortStream(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFF, 8)
	data := w.Bytes()
	r := NewReader(data)
	if err := r.ReadPackedBytes(make([]byte, 4), 7); err != ErrShortStream {
		t.Fatalf("ReadPackedBytes short: %v", err)
	}
	r = NewReader(data)
	if err := r.ReadPacked64(make([]uint64, 2), 33); err != ErrShortStream {
		t.Fatalf("ReadPacked64 short: %v", err)
	}
	if err := NewReader(data).ReadPackedBytes(make([]byte, 1), 9); err == nil {
		t.Fatal("ReadPackedBytes width 9 accepted")
	}
	if err := NewReader(data).ReadPacked64(make([]uint64, 1), 65); err == nil {
		t.Fatal("ReadPacked64 width 65 accepted")
	}
}
