// Package bitio provides bit-granular writers and readers plus small
// variable-length integer codecs used by the compression pipelines.
//
// The writer packs bits LSB-first into a growing byte slice; the reader
// mirrors it. Both are deliberately allocation-light: the hot paths
// (WriteBits/ReadBits) operate on a 64-bit accumulator.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortStream reports a read past the end of the underlying buffer.
var ErrShortStream = errors.New("bitio: unexpected end of stream")

// ErrPackedWidth reports a fixed width outside the packed readers' range.
var ErrPackedWidth = errors.New("bitio: packed width out of range")

// Writer accumulates bits LSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, LSB-first
	nacc uint   // number of valid bits in acc (< 8 after flushAcc)
}

// NewWriter returns a Writer whose internal buffer has the given capacity
// hint in bytes.
func NewWriter(capHint int) *Writer {
	if capHint < 0 {
		capHint = 0
	}
	return &Writer{buf: make([]byte, 0, capHint)}
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.acc |= uint64(b&1) << w.nacc
	w.nacc++
	if w.nacc == 64 {
		w.spill()
	}
}

// WriteBits appends the n low bits of v, LSB-first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.acc |= v << w.nacc
	if w.nacc+n >= 64 {
		free := 64 - w.nacc
		w.spillFull()
		if free < n {
			w.acc = v >> free
		}
		w.nacc = n - free
		return
	}
	w.nacc += n
}

// spillFull writes the full 64-bit accumulator to the buffer.
func (w *Writer) spillFull() {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], w.acc)
	w.buf = append(w.buf, tmp[:]...)
	w.acc = 0
}

// spill writes 8 bytes when nacc hit exactly 64 via WriteBit.
func (w *Writer) spill() {
	w.spillFull()
	w.nacc = 0
}

// WriteBytes appends whole bytes. If the writer is not currently
// byte-aligned the bytes are shifted into the bit stream, eight input
// bytes at a time through the 64-bit accumulator.
func (w *Writer) WriteBytes(p []byte) {
	if w.nacc%8 == 0 {
		// Fast path: flush accumulator fully, then bulk-append.
		for w.nacc > 0 {
			w.buf = append(w.buf, byte(w.acc))
			w.acc >>= 8
			w.nacc -= 8
		}
		w.buf = append(w.buf, p...)
		return
	}
	// Unaligned: spill whole pending bytes so nacc < 8, then merge each
	// 64-bit input word with the sub-byte remainder in one shift pair.
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
	var tmp [8]byte
	for len(p) >= 8 {
		v := binary.LittleEndian.Uint64(p)
		binary.LittleEndian.PutUint64(tmp[:], w.acc|v<<w.nacc)
		w.buf = append(w.buf, tmp[:]...)
		w.acc = v >> (64 - w.nacc)
		p = p[8:]
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// WritePackedBytes appends every value of vals at the fixed width (in
// [1, 8]), LSB-first — bit-identical to calling WriteBits(v, width) per
// value, but packing eight values per accumulator push so the batched
// fixed-width kernels (CLOG1, the szp/szx block bodies) pay one WriteBits
// branch per group instead of per symbol.
//
//cuszhi:hotpath
func (w *Writer) WritePackedBytes(vals []byte, width uint) {
	if width == 0 || width > 8 {
		return
	}
	mask := uint64(1)<<width - 1
	i := 0
	for ; i+8 <= len(vals); i += 8 {
		g := vals[i : i+8 : i+8]
		combined := uint64(g[0])&mask |
			(uint64(g[1])&mask)<<width |
			(uint64(g[2])&mask)<<(2*width) |
			(uint64(g[3])&mask)<<(3*width) |
			(uint64(g[4])&mask)<<(4*width) |
			(uint64(g[5])&mask)<<(5*width) |
			(uint64(g[6])&mask)<<(6*width) |
			(uint64(g[7])&mask)<<(7*width)
		w.WriteBits(combined, 8*width)
	}
	for ; i < len(vals); i++ {
		w.WriteBits(uint64(vals[i]), width)
	}
}

// WritePacked64 appends every value of vals at the fixed width (in
// [1, 64]), LSB-first — bit-identical to calling WriteBits(v, width) per
// value, but combining as many values as fit in 64 bits per accumulator
// push.
//
//cuszhi:hotpath
func (w *Writer) WritePacked64(vals []uint64, width uint) {
	if width == 0 || width > 64 {
		return
	}
	group := int(64 / width)
	if group <= 1 {
		for _, v := range vals {
			w.WriteBits(v, width)
		}
		return
	}
	mask := uint64(1)<<width - 1 // width == 64 handled by group <= 1 above
	i := 0
	for ; i+group <= len(vals); i += group {
		var combined uint64
		for k, v := range vals[i : i+group : i+group] {
			combined |= (v & mask) << (uint(k) * width)
		}
		w.WriteBits(combined, uint(group)*width)
	}
	for ; i < len(vals); i++ {
		w.WriteBits(vals[i], width)
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if r := w.nacc % 8; r != 0 {
		w.WriteBits(0, 8-r)
	}
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nacc)
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The Writer remains usable; subsequent writes continue byte-aligned.
func (w *Writer) Bytes() []byte {
	w.Align()
	for w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
	return w.buf
}

// Reset truncates the writer to empty, retaining the buffer capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
}

// ResetWithBuf truncates the writer to empty and adopts buf's capacity as
// its backing store, so pooled buffers can be reused across writers without
// reallocating. The previous buffer is released.
func (w *Writer) ResetWithBuf(buf []byte) {
	w.buf = buf[:0]
	w.acc = 0
	w.nacc = 0
}

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int    // next byte index to load
	acc  uint64 // loaded bits
	nacc uint   // valid bits in acc
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// ResetBytes rebinds the reader to p, discarding any pending bits. It lets
// stack- or arena-resident Reader values be reused across payloads without
// reallocating (the zero value plus ResetBytes is equivalent to NewReader).
func (r *Reader) ResetBytes(p []byte) {
	r.buf = p
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

func (r *Reader) fill() {
	// Bulk path: one unaligned 64-bit load tops the accumulator up with as
	// many whole bytes as fit. The mask keeps only those bytes, so bits the
	// load brought in beyond the counted ones never linger in acc.
	if r.nacc <= 56 && r.pos+8 <= len(r.buf) {
		n := (64 - r.nacc) >> 3
		v := binary.LittleEndian.Uint64(r.buf[r.pos:])
		v &= uint64(1)<<(8*n) - 1 // 8*n == 64 shifts to 0, wrapping to ^0
		r.acc |= v << r.nacc
		r.pos += int(n)
		r.nacc += 8 * n
		return
	}
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nacc == 0 {
		r.fill()
		if r.nacc == 0 {
			return 0, ErrShortStream
		}
	}
	b := uint(r.acc & 1)
	r.acc >>= 1
	r.nacc--
	return b, nil
}

// ReadBits reads n bits (n in [0,64]) LSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits(%d) out of range", n)
	}
	if r.nacc < n {
		r.fill()
	}
	if r.nacc >= n {
		var v uint64
		if n == 64 {
			v = r.acc
		} else {
			v = r.acc & ((1 << n) - 1)
		}
		r.acc >>= n % 64
		if n == 64 {
			r.acc = 0
		}
		r.nacc -= n
		return v, nil
	}
	// Straddles the accumulator: take what we have, then refill.
	got := r.nacc
	v := r.acc
	r.acc, r.nacc = 0, 0
	r.fill()
	rest := n - got
	if r.nacc < rest {
		return 0, ErrShortStream
	}
	hi := r.acc & ((1 << rest) - 1)
	r.acc >>= rest
	r.nacc -= rest
	return v | hi<<got, nil
}

// ReadBytes reads n whole bytes.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitio: ReadBytes(%d) negative", n)
	}
	if r.nacc%8 == 0 && r.nacc == 0 && r.pos+n <= len(r.buf) {
		out := r.buf[r.pos : r.pos+n]
		r.pos += n
		return out, nil
	}
	out := make([]byte, n)
	for i := range out {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(v)
	}
	return out, nil
}

// ReadPackedBytes fills dst with len(dst) values of the fixed width (in
// [1, 8]) — the inverse of WritePackedBytes. The accumulator is refilled
// once per batch of extractions rather than per value.
//
//cuszhi:hotpath
func (r *Reader) ReadPackedBytes(dst []byte, width uint) error {
	if width == 0 || width > 8 {
		return ErrPackedWidth
	}
	mask := uint64(1)<<width - 1
	i := 0
	// Whole groups of 8 resolve from the accumulator without refill. The
	// group loop runs out only near the end of the stream (fill no longer
	// supplies 8*width bits) or of dst; the scalar loop finishes both tails.
	for i+8 <= len(dst) {
		if r.nacc < 8*width {
			r.fill()
			if r.nacc < 8*width {
				break
			}
		}
		acc := r.acc
		g := dst[i : i+8 : i+8]
		g[0] = byte(acc & mask)
		g[1] = byte(acc >> width & mask)
		g[2] = byte(acc >> (2 * width) & mask)
		g[3] = byte(acc >> (3 * width) & mask)
		g[4] = byte(acc >> (4 * width) & mask)
		g[5] = byte(acc >> (5 * width) & mask)
		g[6] = byte(acc >> (6 * width) & mask)
		g[7] = byte(acc >> (7 * width) & mask)
		r.acc = acc >> (8 * width)
		r.nacc -= 8 * width
		i += 8
	}
	for ; i < len(dst); i++ {
		v, err := r.ReadBits(width)
		if err != nil {
			return err
		}
		dst[i] = byte(v)
	}
	return nil
}

// ReadPacked64 fills dst with len(dst) values of the fixed width (in
// [1, 64]) — the inverse of WritePacked64.
//
//cuszhi:hotpath
func (r *Reader) ReadPacked64(dst []uint64, width uint) error {
	if width == 0 || width > 64 {
		return ErrPackedWidth
	}
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := range dst {
		if r.nacc < width {
			r.fill()
			if r.nacc < width {
				v, err := r.ReadBits(width) // straddling tail path
				if err != nil {
					return err
				}
				dst[i] = v
				continue
			}
		}
		dst[i] = r.acc & mask
		r.acc >>= width % 64
		if width == 64 {
			r.acc = 0
		}
		r.nacc -= width
	}
	return nil
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	if rem := r.nacc % 8; rem != 0 {
		r.acc >>= rem
		r.nacc -= rem
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nacc)
}

// AppendUvarint appends v in LEB128 form to dst and returns the result.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// UvarintLen returns the length of v's minimal LEB128 encoding, the number
// of bytes AppendUvarint appends.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Uvarint decodes a LEB128 value from p, returning the value and the number
// of bytes consumed (0 if p is truncated).
func Uvarint(p []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range p {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}

// MaxWireLen is the ceiling every length-like wire value must stay under
// before conversion to int: it fits a 32-bit int, so the conversion can
// never wrap negative and slip past a bounds check into a panicking slice
// or a hostile make. It is comfortably above any legitimate shard, payload
// or element count this repository's containers carry.
const MaxWireLen = 1<<31 - 1

// IntLen converts a 64-bit length-like wire value to int, reporting
// ok=false when it exceeds MaxWireLen. It is the shared capping helper the
// decode paths (and the wirelen analyzer in internal/lint) standardize on —
// use it instead of repeating inline `v > 1<<31` guards:
//
//	n, ok := bitio.IntLen(n64)
//	if !ok { return ErrCorrupt }
func IntLen(v uint64) (int, bool) {
	if v > MaxWireLen {
		return 0, false
	}
	return int(v), true
}

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

// ZigZag maps a signed integer to an unsigned one so that small-magnitude
// values (of either sign) become small unsigned values.
func ZigZag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
