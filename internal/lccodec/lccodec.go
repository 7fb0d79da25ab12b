// Package lccodec implements the LC-framework-style lossless components
// that cuSZ-Hi composes into its encoding pipelines (§5.2, Fig. 6/7):
//
//   - RRE{w}  — repeat elimination: a bitmap marks symbols identical to
//     their predecessor; marked symbols are dropped and the bitmap is
//     compressed recursively.
//   - RZE{w}  — zero elimination: same, but marks zero symbols.
//   - TCMS{w} — two's-complement → magnitude-sign transform
//     ((word << 1) ^ (word >> (8w-1)), the operation quoted in §5.2.3).
//   - BIT1    — bit shuffle: transposes the 8 bit planes of byte blocks.
//   - DIFFMS1 — byte delta followed by magnitude-sign mapping.
//   - CLOG1   — per-block ceiling-log2 fixed-width bit packing.
//   - TUPLD/TUPLQ{w} — tuple deinterleave into 2 / 4 sub-streams (SoA).
//   - HF      — the canonical Huffman coder from internal/huffman.
//
// The number in a component name is the width in bytes of the symbols it
// processes, exactly as in the paper's pipeline names. A Pipeline chains
// components: cuSZ-Hi-CR uses HF-RRE4-TCMS8-RZE1, cuSZ-Hi-TP uses
// TCMS1-BIT1-RRE1.
//
// Every stage draws its output buffer from an optional arena.Ctx, so a
// pipeline run over a reused context performs no per-stage allocations;
// stage outputs obtained through a context are scratch, valid until the
// next ctx.Reset.
package lccodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/huffman"
)

// ErrCorrupt reports a malformed component stream.
var ErrCorrupt = errors.New("lccodec: corrupt stream")

// SWAR per-byte bit masks.
const (
	swarLo = 0x0101010101010101
	swarHi = 0x8080808080808080
)

// hasZeroByte reports whether any byte of v is zero (Hacker's Delight 6-1).
//
//cuszhi:hotpath
func hasZeroByte(v uint64) bool {
	return (v-swarLo) & ^v & swarHi != 0
}

// byteMask widens per-byte 0/1 flags (bit 0 of each byte of m) to 0x00/0xFF.
//
//cuszhi:hotpath
func byteMask(m uint64) uint64 {
	return (m << 8) - m
}

// Component is one reversible stage of a lossless pipeline. ctx may be nil.
type Component interface {
	Name() string
	Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error)
	Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error)
}

// ---------------------------------------------------------------------------
// Symbol access helpers.

// loadSym reads the w-byte little-endian symbol at index i.
//
//cuszhi:hotpath
func loadSym(p []byte, i, w int) uint64 {
	off := i * w
	switch w {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for k := w - 1; k >= 0; k-- {
		v = v<<8 | uint64(p[off+k])
	}
	return v
}

// storeSym writes the w-byte little-endian symbol at index i.
//
//cuszhi:hotpath
func storeSym(p []byte, i, w int, v uint64) {
	off := i * w
	switch w {
	case 1:
		p[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(p[off:], v)
	default:
		for k := 0; k < w; k++ {
			p[off+k] = byte(v >> (8 * k))
		}
	}
}

// ---------------------------------------------------------------------------
// TCMS — two's complement to magnitude-sign (zigzag), width w.

type tcms struct{ w int }

func (c tcms) Name() string { return fmt.Sprintf("TCMS%d", c.w) }

func (c tcms) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	return c.apply(ctx, dev, src, true), nil
}

func (c tcms) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	return c.apply(ctx, dev, src, false), nil
}

func (c tcms) apply(ctx *arena.Ctx, dev *gpusim.Device, src []byte, fwd bool) []byte {
	out := ctx.Bytes(len(src))
	if c.w == 1 {
		// Byte-wide fast path: zigzag on int8, no symbol load/store helpers.
		// The batched kernel runs the transform byte-parallel over uint64
		// lanes (SWAR): isolate the per-byte sign (encode) or low (decode)
		// bits, widen them to full-byte masks, and XOR — eight symbols per
		// load/store, bit-identical to the scalar form.
		dev.LaunchBatched(len(src), 1<<16, 8, func(lo, hi int) {
			i := lo
			for ; i+8 <= hi; i += 8 {
				v := binary.LittleEndian.Uint64(src[i:])
				var r uint64
				if fwd {
					r = (v<<1)&^swarLo ^ byteMask(v>>7&swarLo)
				} else {
					r = (v>>1)&^swarHi ^ byteMask(v&swarLo)
				}
				binary.LittleEndian.PutUint64(out[i:], r)
			}
			if fwd {
				for ; i < hi; i++ {
					b := src[i]
					out[i] = (b << 1) ^ byte(int8(b)>>7)
				}
			} else {
				for ; i < hi; i++ {
					b := src[i]
					out[i] = byte(int8(b>>1) ^ -int8(b&1))
				}
			}
		})
		return out
	}
	n := len(src) / c.w
	shift := uint(8*c.w - 1)
	var mask uint64 = ^uint64(0)
	if c.w < 8 {
		mask = 1<<(8*c.w) - 1
	}
	dev.LaunchChunks(n, 1<<16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := loadSym(src, i, c.w)
			var r uint64
			if fwd {
				// Sign-extend then zigzag within width.
				sign := v >> shift & 1
				r = (v << 1) & mask
				if sign != 0 {
					r ^= mask
				}
			} else {
				r = v >> 1
				if v&1 != 0 {
					r ^= mask
				}
				r &= mask
			}
			storeSym(out, i, c.w, r&mask)
		}
	})
	copy(out[n*c.w:], src[n*c.w:]) // tail bytes pass through
	return out
}

// ---------------------------------------------------------------------------
// BIT1 — bit shuffle over fixed byte blocks.

const bitShuffleBlock = 4096

type bitShuffle struct{}

func (bitShuffle) Name() string { return "BIT1" }

func (bitShuffle) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	out := ctx.Bytes(len(src))
	nBlocks := (len(src) + bitShuffleBlock - 1) / bitShuffleBlock
	dev.Launch(nBlocks, func(b int) {
		lo := b * bitShuffleBlock
		hi := lo + bitShuffleBlock
		if hi > len(src) {
			hi = len(src)
		}
		shuffleBlock(src[lo:hi], out[lo:hi])
	})
	return out, nil
}

func (bitShuffle) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	out := ctx.Bytes(len(src))
	nBlocks := (len(src) + bitShuffleBlock - 1) / bitShuffleBlock
	dev.Launch(nBlocks, func(b int) {
		lo := b * bitShuffleBlock
		hi := lo + bitShuffleBlock
		if hi > len(src) {
			hi = len(src)
		}
		unshuffleBlock(src[lo:hi], out[lo:hi])
	})
	return out, nil
}

// transpose8x8 transposes the 8×8 bit matrix packed in x (row r = byte r,
// column c = bit c), Hacker's Delight 7-3. It is an involution.
//
//cuszhi:hotpath
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// shuffleBlock gathers bit plane p of every byte into contiguous output
// bits. Output layout: plane 0 of all n bytes, then plane 1, etc. A block of
// n bytes has 8n bits; plane p occupies bits [p*n, (p+1)*n). Full blocks
// (n divisible by 8) run as 8×8 bit-matrix transposes, eight bytes per
// step; ragged tails fall back to the bit-at-a-time loop.
//
//cuszhi:hotpath
func shuffleBlock(src, dst []byte) {
	n := len(src)
	if n%8 == 0 {
		ps := n >> 3 // plane stride in bytes
		for i := 0; i+8 <= n; i += 8 {
			y := transpose8x8(binary.LittleEndian.Uint64(src[i:]))
			o := i >> 3
			dst[o] = byte(y)
			dst[ps+o] = byte(y >> 8)
			dst[2*ps+o] = byte(y >> 16)
			dst[3*ps+o] = byte(y >> 24)
			dst[4*ps+o] = byte(y >> 32)
			dst[5*ps+o] = byte(y >> 40)
			dst[6*ps+o] = byte(y >> 48)
			dst[7*ps+o] = byte(y >> 56)
		}
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range src {
		for p := 0; p < 8; p++ {
			if b>>p&1 != 0 {
				bitPos := p*n + i
				dst[bitPos>>3] |= 1 << (bitPos & 7)
			}
		}
	}
}

//cuszhi:hotpath
func unshuffleBlock(src, dst []byte) {
	n := len(dst)
	if n%8 == 0 {
		ps := n >> 3
		var tmp [8]byte
		for i := 0; i+8 <= n; i += 8 {
			o := i >> 3
			tmp[0] = src[o]
			tmp[1] = src[ps+o]
			tmp[2] = src[2*ps+o]
			tmp[3] = src[3*ps+o]
			tmp[4] = src[4*ps+o]
			tmp[5] = src[5*ps+o]
			tmp[6] = src[6*ps+o]
			tmp[7] = src[7*ps+o]
			binary.LittleEndian.PutUint64(dst[i:], transpose8x8(binary.LittleEndian.Uint64(tmp[:])))
		}
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for p := 0; p < 8; p++ {
		for i := 0; i < n; i++ {
			bitPos := p*n + i
			if src[bitPos>>3]>>(bitPos&7)&1 != 0 {
				dst[i] |= 1 << p
			}
		}
	}
}

// ---------------------------------------------------------------------------
// RRE / RZE — repeat / zero elimination with recursively compressed bitmap.

type elim struct {
	w     int
	zero  bool // true: RZE (mark zeros); false: RRE (mark repeats)
	depth int  // remaining recursive-bitmap budget; 0 value means "fresh"
}

func (c elim) budget() int {
	if c.depth == 0 {
		return maxBitmapDepth
	}
	return c.depth
}

func (c elim) Name() string {
	if c.zero {
		return fmt.Sprintf("RZE%d", c.w)
	}
	return fmt.Sprintf("RRE%d", c.w)
}

const (
	bitmapRaw       = 0x00
	bitmapRecursive = 0x01
	maxBitmapDepth  = 4
	minRecurseSize  = 64
)

func (c elim) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	n := len(src) / c.w
	tail := src[n*c.w:]
	bitmap := ctx.Bytes((n + 7) / 8)
	clear(bitmap)
	kept := ctx.Bytes(len(src))[:0]
	if c.w == 1 {
		// Byte-wide fast path for the pipelines' hot RRE1/RZE1 stages. It
		// classifies eight symbols per uint64 load: all-drop and all-keep
		// groups (the overwhelming majority on shuffled bitplane data)
		// resolve with one bitmap-byte store and one bulk append; only
		// mixed groups and the tail fall back to the per-symbol body.
		var prev byte
		i := 0
		for ; i+8 <= n; i += 8 {
			v := binary.LittleEndian.Uint64(src[i:])
			if c.zero {
				if v == 0 {
					continue // all zero: dropped, bitmap byte stays 0
				}
				if !hasZeroByte(v) {
					bitmap[i>>3] = 0xFF
					kept = append(kept, src[i:i+8]...)
					continue
				}
			} else if i > 0 {
				if v == uint64(prev)*swarLo {
					continue // all repeat the running value
				}
				if !hasZeroByte(v ^ (v<<8 | uint64(prev))) {
					bitmap[i>>3] = 0xFF
					kept = append(kept, src[i:i+8]...)
					prev = byte(v >> 56)
					continue
				}
			}
			for j := i; j < i+8; j++ {
				b := src[j]
				var keep bool
				if c.zero {
					keep = b != 0
				} else {
					keep = j == 0 || b != prev
					prev = b
				}
				if keep {
					bitmap[j>>3] |= 1 << (j & 7)
					kept = append(kept, b)
				}
			}
		}
		for ; i < n; i++ {
			v := src[i]
			var keep bool
			if c.zero {
				keep = v != 0
			} else {
				keep = i == 0 || v != prev
				prev = v
			}
			if keep {
				bitmap[i>>3] |= 1 << (i & 7)
				kept = append(kept, v)
			}
		}
	} else {
		var prev uint64
		for i := 0; i < n; i++ {
			v := loadSym(src, i, c.w)
			keep := false
			if c.zero {
				keep = v != 0
			} else {
				keep = i == 0 || v != prev
				prev = v
			}
			if keep {
				bitmap[i>>3] |= 1 << (i & 7)
				kept = append(kept, src[i*c.w:(i+1)*c.w]...)
			}
		}
	}
	bm := encodeBitmap(ctx, dev, bitmap, c.budget())
	out := ctx.Bytes(len(bm) + len(kept) + len(tail) + 20)[:0]
	out = bitio.AppendUvarint(out, uint64(len(src)))
	out = bitio.AppendUvarint(out, uint64(len(bm)))
	out = append(out, bm...)
	out = append(out, kept...)
	out = append(out, tail...)
	return out, nil
}

func (c elim) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	// Both lengths come off the wire: cap them before converting to int so
	// a hostile stream can neither overflow to a negative slice bound nor
	// force an absurd allocation (1<<35 = the container element cap times
	// the widest symbol these stages carry).
	origLen, n0 := bitio.Uvarint(src)
	if n0 == 0 || origLen > 1<<35 {
		return nil, ErrCorrupt
	}
	off := n0
	bmLen, n1 := bitio.Uvarint(src[off:])
	if n1 == 0 || bmLen > uint64(len(src)) {
		return nil, ErrCorrupt
	}
	off += n1
	if off+int(bmLen) > len(src) {
		return nil, ErrCorrupt
	}
	nSym := int(origLen) / c.w
	bitmap, err := decodeBitmap(ctx, dev, src[off:off+int(bmLen)], (nSym+7)/8, c.budget())
	if err != nil {
		return nil, err
	}
	off += int(bmLen)
	out := ctx.Bytes(int(origLen))
	keptOff := off
	if c.w == 1 {
		// Mirror of the encoder's group fast path: a full bitmap byte
		// copies eight kept symbols at once, an empty one stores eight
		// zeros or eight copies of the running value; mixed bytes fall
		// back to per-symbol decoding.
		var prev byte
		i := 0
		for ; i+8 <= nSym; i += 8 {
			switch bitmap[i>>3] {
			case 0xFF:
				if keptOff+8 > len(src) {
					return nil, ErrCorrupt
				}
				copy(out[i:i+8], src[keptOff:keptOff+8])
				keptOff += 8
				if !c.zero {
					prev = out[i+7]
				}
				continue
			case 0x00:
				if c.zero {
					binary.LittleEndian.PutUint64(out[i:], 0)
					continue
				}
				if i == 0 {
					return nil, ErrCorrupt // first symbol must be kept
				}
				binary.LittleEndian.PutUint64(out[i:], uint64(prev)*swarLo)
				continue
			}
			for j := i; j < i+8; j++ {
				if bitmap[j>>3]>>(j&7)&1 != 0 {
					if keptOff >= len(src) {
						return nil, ErrCorrupt
					}
					v := src[keptOff]
					keptOff++
					out[j] = v
					if !c.zero {
						prev = v
					}
				} else if c.zero {
					out[j] = 0
				} else {
					if j == 0 {
						return nil, ErrCorrupt // first symbol must be kept
					}
					out[j] = prev
				}
			}
		}
		for ; i < nSym; i++ {
			if bitmap[i>>3]>>(i&7)&1 != 0 {
				if keptOff >= len(src) {
					return nil, ErrCorrupt
				}
				v := src[keptOff]
				keptOff++
				out[i] = v
				if !c.zero {
					prev = v
				}
			} else if c.zero {
				out[i] = 0
			} else {
				if i == 0 {
					return nil, ErrCorrupt // first symbol must be kept
				}
				out[i] = prev
			}
		}
	} else {
		var prev uint64
		for i := 0; i < nSym; i++ {
			if bitmap[i>>3]>>(i&7)&1 != 0 {
				if keptOff+c.w > len(src) {
					return nil, ErrCorrupt
				}
				copy(out[i*c.w:], src[keptOff:keptOff+c.w])
				keptOff += c.w
				if !c.zero {
					prev = loadSym(out, i, c.w)
				}
			} else {
				if c.zero {
					storeSym(out, i, c.w, 0)
				} else {
					if i == 0 {
						return nil, ErrCorrupt // first symbol must be kept
					}
					storeSym(out, i, c.w, prev)
				}
			}
		}
	}
	tailLen := int(origLen) - nSym*c.w
	if keptOff+tailLen != len(src) {
		return nil, ErrCorrupt
	}
	copy(out[nSym*c.w:], src[keptOff:])
	return out, nil
}

// encodeBitmap compresses a bitmap, recursing through RRE1 while it shrinks.
func encodeBitmap(ctx *arena.Ctx, dev *gpusim.Device, bm []byte, depth int) []byte {
	if depth > 1 && len(bm) >= minRecurseSize {
		inner, err := elim{w: 1, depth: depth - 1}.Encode(ctx, dev, bm)
		if err == nil && len(inner) < len(bm) {
			out := ctx.Bytes(len(inner) + 1)[:0]
			out = append(out, bitmapRecursive)
			return append(out, inner...)
		}
	}
	out := ctx.Bytes(len(bm) + 1)[:0]
	out = append(out, bitmapRaw)
	return append(out, bm...)
}

func decodeBitmap(ctx *arena.Ctx, dev *gpusim.Device, p []byte, wantLen, depth int) ([]byte, error) {
	if len(p) == 0 {
		if wantLen == 0 {
			return nil, nil
		}
		return nil, ErrCorrupt
	}
	switch p[0] {
	case bitmapRaw:
		bm := p[1:]
		if len(bm) != wantLen {
			return nil, ErrCorrupt
		}
		return bm, nil
	case bitmapRecursive:
		if depth <= 1 {
			return nil, ErrCorrupt
		}
		bm, err := (elim{w: 1, depth: depth - 1}).Decode(ctx, dev, p[1:])
		if err != nil {
			return nil, err
		}
		if len(bm) != wantLen {
			return nil, ErrCorrupt
		}
		return bm, nil
	}
	return nil, ErrCorrupt
}

// ---------------------------------------------------------------------------
// DIFFMS1 — byte delta + magnitude-sign.

type diffms struct{}

func (diffms) Name() string { return "DIFFMS1" }

func (diffms) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	out := ctx.Bytes(len(src))
	var prev byte
	for i, b := range src {
		d := int8(b - prev)
		out[i] = byte((d << 1) ^ (d >> 7))
		prev = b
	}
	return out, nil
}

func (diffms) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	out := ctx.Bytes(len(src))
	var prev byte
	for i, b := range src {
		d := byte(int8(b>>1) ^ -int8(b&1))
		prev += d
		out[i] = prev
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// CLOG1 — per-block ceiling-log2 fixed-width packing of bytes.

const clogBlock = 256

type clog struct{}

func (clog) Name() string { return "CLOG1" }

func (clog) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	nBlocks := (len(src) + clogBlock - 1) / clogBlock
	var w bitio.Writer
	// Worst case: every block at width 8 plus its 4-bit header.
	w.ResetWithBuf(ctx.Bytes(len(src) + nBlocks/2 + 16)[:0])
	for b := 0; b < nBlocks; b++ {
		lo := b * clogBlock
		hi := lo + clogBlock
		if hi > len(src) {
			hi = len(src)
		}
		blk := src[lo:hi]
		// The block width is ceil-log2 of the max, which only depends on
		// the highest bit set anywhere — so an 8-bytes-per-load OR
		// reduction replaces the byte-wise max scan.
		var acc uint64
		i := 0
		for ; i+8 <= len(blk); i += 8 {
			acc |= binary.LittleEndian.Uint64(blk[i:])
		}
		acc |= acc >> 32
		acc |= acc >> 16
		acc |= acc >> 8
		maxv := byte(acc)
		for ; i < len(blk); i++ {
			maxv |= blk[i]
		}
		width := uint(bits.Len8(maxv))
		w.WriteBits(uint64(width), 4)
		if width > 0 {
			w.WritePackedBytes(blk, width)
		}
	}
	packed := w.Bytes()
	out := ctx.Bytes(len(packed) + 10)[:0]
	out = bitio.AppendUvarint(out, uint64(len(src)))
	return append(out, packed...), nil
}

func (clog) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	origLen, n := bitio.Uvarint(src)
	if n == 0 || origLen > 1<<35 { // wire length: cap before int conversion
		return nil, ErrCorrupt
	}
	// Every block costs at least its 4-bit width header, so a stream
	// shorter than half a byte per block is lying about origLen — reject
	// it before the output allocation, not after.
	nBlocks := int((origLen + clogBlock - 1) / clogBlock)
	if nBlocks > 2*(len(src)-n) {
		return nil, ErrCorrupt
	}
	r := bitio.NewReader(src[n:])
	out := ctx.Bytes(int(origLen))
	for b := 0; b < nBlocks; b++ {
		lo := b * clogBlock
		hi := lo + clogBlock
		if hi > len(out) {
			hi = len(out)
		}
		width64, err := r.ReadBits(4)
		if err != nil {
			return nil, ErrCorrupt
		}
		width := uint(width64)
		if width > 8 {
			return nil, ErrCorrupt
		}
		if width == 0 {
			clear(out[lo:hi])
			continue
		}
		if err := r.ReadPackedBytes(out[lo:hi], width); err != nil {
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// TUPL — deinterleave symbols of width w into k sub-streams.

type tupl struct {
	w, k int
}

func (c tupl) Name() string {
	if c.k == 4 {
		return fmt.Sprintf("TUPLQ%d", c.w)
	}
	return fmt.Sprintf("TUPLD%d", c.w)
}

func (c tupl) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	n := len(src) / c.w
	out := ctx.Bytes(len(src))
	pos := 0
	for lane := 0; lane < c.k; lane++ {
		for i := lane; i < n; i += c.k {
			copy(out[pos:], src[i*c.w:(i+1)*c.w])
			pos += c.w
		}
	}
	copy(out[pos:], src[n*c.w:])
	return out, nil
}

func (c tupl) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	n := len(src) / c.w
	out := ctx.Bytes(len(src))
	pos := 0
	for lane := 0; lane < c.k; lane++ {
		for i := lane; i < n; i += c.k {
			copy(out[i*c.w:(i+1)*c.w], src[pos:pos+c.w])
			pos += c.w
		}
	}
	copy(out[n*c.w:], src[pos:])
	return out, nil
}

// ---------------------------------------------------------------------------
// HF — Huffman entropy stage.

type hf struct{}

func (hf) Name() string { return "HF" }

func (hf) Encode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	return huffman.EncodeBytesCtx(ctx, dev, src, nil)
}

func (hf) Decode(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	return huffman.DecodeBytesCtx(ctx, dev, src)
}

// ---------------------------------------------------------------------------
// Component registry and pipelines.

// New returns the component with the given LC-style name, e.g. "RRE4".
func New(name string) (Component, error) {
	switch strings.ToUpper(name) {
	case "HF":
		return hf{}, nil
	case "BIT1":
		return bitShuffle{}, nil
	case "DIFFMS1":
		return diffms{}, nil
	case "CLOG1":
		return clog{}, nil
	case "RRE1":
		return elim{w: 1}, nil
	case "RRE2":
		return elim{w: 2}, nil
	case "RRE4":
		return elim{w: 4}, nil
	case "RRE8":
		return elim{w: 8}, nil
	case "RZE1":
		return elim{w: 1, zero: true}, nil
	case "RZE2":
		return elim{w: 2, zero: true}, nil
	case "RZE4":
		return elim{w: 4, zero: true}, nil
	case "TCMS1":
		return tcms{w: 1}, nil
	case "TCMS2":
		return tcms{w: 2}, nil
	case "TCMS4":
		return tcms{w: 4}, nil
	case "TCMS8":
		return tcms{w: 8}, nil
	case "TUPLQ1":
		return tupl{w: 1, k: 4}, nil
	case "TUPLD1":
		return tupl{w: 1, k: 2}, nil
	case "TUPLD2":
		return tupl{w: 2, k: 2}, nil
	case "TUPLQ2":
		return tupl{w: 2, k: 4}, nil
	}
	return nil, fmt.Errorf("lccodec: unknown component %q", name)
}

// Pipeline is an ordered chain of components.
type Pipeline struct {
	Spec   string
	Stages []Component
}

// Parse builds a Pipeline from a spec like "HF-RRE4-TCMS8-RZE1" or
// "HF+RRE4-TCMS8-RZE1" (the paper uses both separators).
func Parse(spec string) (*Pipeline, error) {
	norm := strings.ReplaceAll(spec, "+", "-")
	parts := strings.Split(norm, "-")
	p := &Pipeline{Spec: spec}
	for _, part := range parts {
		if part == "" {
			continue
		}
		c, err := New(part)
		if err != nil {
			return nil, err
		}
		p.Stages = append(p.Stages, c)
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("lccodec: empty pipeline %q", spec)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for static pipeline constants.
func MustParse(spec string) *Pipeline {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// EncodeCtx applies all stages in order, drawing stage buffers from ctx;
// the result is context scratch when ctx is non-nil.
func (p *Pipeline) EncodeCtx(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	cur := src
	for _, st := range p.Stages {
		next, err := st.Encode(ctx, dev, cur)
		if err != nil {
			return nil, fmt.Errorf("lccodec: %s encode: %w", st.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// DecodeCtx applies all stage inverses in reverse order, drawing stage
// buffers from ctx; the result is context scratch when ctx is non-nil.
func (p *Pipeline) DecodeCtx(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	cur := src
	for i := len(p.Stages) - 1; i >= 0; i-- {
		st := p.Stages[i]
		next, err := st.Decode(ctx, dev, cur)
		if err != nil {
			return nil, fmt.Errorf("lccodec: %s decode: %w", st.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// HiCR is the compression-ratio-preferred pipeline of cuSZ-Hi (Fig. 7 top).
func HiCR() *Pipeline { return MustParse("HF-RRE4-TCMS8-RZE1") }

// HiCRTail is HiCR without its leading HF stage, for encoders that run the
// entropy stage themselves with a fused (pre-computed) histogram. Composing
// huffman.EncodeBytesCtx with HiCRTail yields byte-identical output to HiCR.
func HiCRTail() *Pipeline { return MustParse("RRE4-TCMS8-RZE1") }

// HiTP is the throughput-preferred pipeline of cuSZ-Hi (Fig. 7 bottom).
func HiTP() *Pipeline { return MustParse("TCMS1-BIT1-RRE1") }
