// Package szx reimplements the cuSZx/SZx design (Yu et al., 2022), the
// ultra-fast "monolithic" compressor archetype that the cuSZ-Hi paper
// discusses in §2.2 and excludes from its main evaluation for its low
// ratio/quality. It is included here to complete the compressor-archetype
// spectrum (offset-quantization vs Lorenzo vs interpolation vs transform
// vs constant-block).
//
// SZx splits the stream into small blocks and classifies each as
// "constant" (every value within eb of the block mean — stored as one
// float) or "non-constant" (values stored with truncated mantissas:
// leading sign/exponent bits plus only the mantissa bits needed to meet
// eb). Both paths are a single cheap pass, which is the entire point.
//
// The *Ctx entry points thread a reusable arena.Ctx: blocks are grouped
// into chunks whose body buffers, length tables and bit writers persist in
// the context (each parallel kernel owns its own chunk slot), and decode
// buffers come from the arena, so warm contexts run the whole round trip
// with near-zero heap allocations. The wire format is unchanged.
package szx

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

// ErrCorrupt reports a malformed container.
var ErrCorrupt = errors.New("szx: corrupt stream")

const (
	blockVals = 128
	// chunkBlocks groups blocks for parallel encode; per-chunk scratch
	// (body buffer, block lengths, bit writer) persists in the context.
	chunkBlocks = 64
)

// chunksKey holds the per-chunk encode scratch (arena batch slots,
// persistent across Reset so steady-state appends never grow).
var chunksKey = arena.NewAuxKey()

// denormFloorExp is math.Frexp's exponent of the smallest normal float32,
// 2^-126 = 0.5·2^-125: every denormal shares its mantissa LSB weight.
const denormFloorExp = -125

// encChunk is one chunk's persistent encode scratch. Exactly one kernel
// invocation touches a given chunk slot per launch.
type encChunk struct {
	body []byte // concatenated block bodies of this chunk
	lens []int  // per-block body lengths
	w    bitio.Writer
}

// mantissaBitsFor returns how many of the 23 mantissa bits must be kept so
// that truncation error stays below eb for values up to maxAbs.
func mantissaBitsFor(maxAbs float32, eb float64) int {
	if maxAbs == 0 {
		return 0
	}
	// Truncating k low mantissa bits of a value with exponent e introduces
	// at most 2^(e-23+k); require that <= eb for the block's max exponent.
	// A denormal's mantissa LSB is fixed at 2^-149, the LSB of the smallest
	// normal exponent, so its exponent is clamped to that floor.
	_, e := math.Frexp(float64(maxAbs))
	e = max(e, denormFloorExp)
	for keep := 0; keep <= 23; keep++ {
		errBound := math.Ldexp(1, e-keep)
		if errBound <= eb {
			return keep
		}
	}
	return 23
}

// CompressCtx encodes data under absolute error bound eb, drawing working
// memory from ctx (nil allocates). The returned container is a fresh
// allocation owned by the caller; only internal scratch is pooled.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, eb float64) ([]byte, error) {
	if eb <= 0 {
		return nil, errors.New("szx: error bound must be positive")
	}
	n := len(data)
	nBlocks := (n + blockVals - 1) / blockVals
	nChunks := (nBlocks + chunkBlocks - 1) / chunkBlocks
	chunks := arena.Slots[encChunk](ctx, chunksKey, nChunks)
	for i := range chunks {
		chunks[i].body = chunks[i].body[:0]
		chunks[i].lens = chunks[i].lens[:0]
	}
	dev.Launch(nChunks, func(c int) {
		co := &chunks[c]
		for b := c * chunkBlocks; b < (c+1)*chunkBlocks && b < nBlocks; b++ {
			lo := b * blockVals
			hi := lo + blockVals
			if hi > n {
				hi = n
			}
			vals := data[lo:hi]
			// Mean and range test for the constant path. The finite test
			// (an integer exponent check) runs apart from the sum; the sum
			// itself stays a sequential float64 reduction, so the mean is
			// bit-identical to the per-value reference.
			var sum float64
			finite := true
			for _, v := range vals {
				if math.Float32bits(v)>>23&0xFF == 0xFF {
					finite = false
					break
				}
			}
			if finite {
				for _, v := range vals {
					sum += float64(v)
				}
			}
			if finite {
				mean := float32(sum / float64(len(vals)))
				constant := true
				for _, v := range vals {
					if math.Abs(float64(v)-float64(mean)) > eb {
						constant = false
						break
					}
				}
				if constant {
					var mb [4]byte
					binary.LittleEndian.PutUint32(mb[:], math.Float32bits(mean))
					co.body = append(co.body, 0x01) // constant block
					co.body = append(co.body, mb[:]...)
					co.lens = append(co.lens, 5)
					continue
				}
			}
			// Non-constant: keep sign+exponent (9 bits) plus enough mantissa.
			// maxAbs compares magnitude bit patterns as integers (IEEE
			// ordering matches unsigned ordering for non-negative floats);
			// when non-finite values are present keep is forced to 23, so a
			// NaN's bit pattern winning here is moot.
			var mb uint32
			for _, v := range vals {
				if b := math.Float32bits(v) &^ (1 << 31); b > mb {
					mb = b
				}
			}
			maxAbs := math.Float32frombits(mb)
			keep := mantissaBitsFor(maxAbs, eb)
			if !finite {
				keep = 23 // store losslessly when non-finite values are present
			}
			w := &co.w
			w.Reset()
			w.WriteBits(uint64(keep), 5)
			// Fuse the two per-value fields into one 9+keep-bit word:
			// WriteBits(se,9) then WriteBits(m,keep) lands se in the low 9
			// bits LSB-first, exactly se|m<<9 at the combined width, so the
			// packed writer emits the per-value writer's bytes.
			width := uint(9 + keep)
			var cs [blockVals]uint64
			for i, v := range vals {
				bits := math.Float32bits(v)
				m := uint64(bits>>(23-uint(keep))) & ((1 << uint(keep)) - 1)
				cs[i] = uint64(bits>>23) | m<<9
			}
			w.WritePacked64(cs[:len(vals)], width)
			payload := w.Bytes()
			co.body = append(co.body, 0x00)
			co.body = append(co.body, payload...)
			co.lens = append(co.lens, 1+len(payload))
		}
	})
	totalBody := 0
	for i := range chunks {
		totalBody += len(chunks[i].body)
	}
	out := make([]byte, 0, totalBody+2*nBlocks+32)
	out = bitio.AppendUvarint(out, uint64(n))
	out = bitio.AppendUint64(out, math.Float64bits(eb))
	out = bitio.AppendUvarint(out, uint64(nBlocks))
	for i := range chunks {
		for _, l := range chunks[i].lens {
			out = bitio.AppendUvarint(out, uint64(l))
		}
	}
	for i := range chunks {
		out = append(out, chunks[i].body...)
	}
	return out, nil
}

// DecompressCtx reverses CompressCtx. With a non-nil ctx the returned
// field is context scratch, valid until the next ctx.Reset.
//
//cuszhi:hotpath
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, blob []byte) ([]float32, error) {
	n64, nn := bitio.Uvarint(blob)
	// Cap the element count before any conversion or allocation sized by
	// it: a hostile count must fail cheaply, not force a huge make.
	if nn == 0 || n64 > 1<<33 {
		return nil, ErrCorrupt
	}
	off := nn
	n := int(n64)
	if n < 0 { // int wrap on 32-bit platforms
		return nil, ErrCorrupt
	}
	if off+8 > len(blob) {
		return nil, ErrCorrupt
	}
	off += 8 // eb is informational on decode
	nBlocks64, nn := bitio.Uvarint(blob[off:])
	if nn == 0 {
		return nil, ErrCorrupt
	}
	off += nn
	want := (n + blockVals - 1) / blockVals
	if nBlocks64 != uint64(want) {
		return nil, ErrCorrupt
	}
	lens := ctx.Ints(want)
	total := 0
	for i := range lens {
		l, nn := bitio.Uvarint(blob[off:])
		// Cap each block length before the int conversion: a huge wire
		// value would overflow the running total negative and slip past
		// the bounds check into panicking slice expressions below.
		if nn == 0 || l > uint64(len(blob)) {
			return nil, ErrCorrupt
		}
		off += nn
		lens[i] = int(l)
		total += int(l)
		if total > len(blob) {
			return nil, ErrCorrupt
		}
	}
	if off+total > len(blob) {
		return nil, ErrCorrupt
	}
	starts := ctx.Ints(want)
	pos := off
	for i, l := range lens {
		starts[i] = pos
		pos += l
	}
	out := ctx.F32(n)
	ok := ctx.Bytes(want)
	clear(ok)
	dev.Launch(want, func(b int) {
		lo := b * blockVals
		hi := lo + blockVals
		if hi > n {
			hi = n
		}
		body := blob[starts[b] : starts[b]+lens[b]]
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case 0x01:
			if len(body) != 5 {
				return
			}
			mean := math.Float32frombits(binary.LittleEndian.Uint32(body[1:]))
			for i := lo; i < hi; i++ {
				out[i] = mean
			}
			ok[b] = 1
		case 0x00:
			var r bitio.Reader
			r.ResetBytes(body[1:])
			keep64, err := r.ReadBits(5)
			if err != nil || keep64 > 23 {
				return
			}
			keep := uint(keep64)
			var cs [blockVals]uint64
			c := cs[:hi-lo]
			if r.ReadPacked64(c, 9+keep) != nil {
				return
			}
			o := out[lo:hi:hi]
			for i, cv := range c {
				bits := uint32(cv&0x1FF)<<23 | uint32(cv>>9)<<(23-keep)
				o[i] = math.Float32frombits(bits)
			}
			ok[b] = 1
		}
	})
	for _, o := range ok {
		if o == 0 {
			return nil, ErrCorrupt
		}
	}
	return out, nil
}
