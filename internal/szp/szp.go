// Package szp reimplements the cuSZp2 baseline (Huang et al., SC'24): an
// end-to-end throughput-oriented GPU compressor built from 1-D offset
// (delta) prediction on prequantized integers and per-block fixed-length
// encoding, with an "outlier mode" bitmap that elides all-zero blocks.
//
// The pipeline is: round every value to the 2ε lattice, delta-encode within
// independent 32-value blocks, zigzag, and pack each block at its own
// ceiling-log2 bit width. Blocks whose deltas are all zero cost a single
// bitmap bit — that sparsification is where cuSZp2's ratio comes from on
// smooth fields, while its 1-D prediction keeps its ratio well below the
// interpolation compressors', matching Table 4.
//
// The *Ctx entry points thread a reusable arena.Ctx: per-chunk bit writers
// and outlier collectors persist across calls (each parallel kernel owns
// its own chunk slot, so the shared context is never touched concurrently),
// and decode buffers come from the arena, so warm contexts run the whole
// round trip with near-zero heap allocations.
package szp

import (
	"errors"
	"math"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

// ErrCorrupt reports a malformed container.
var ErrCorrupt = errors.New("szp: corrupt stream")

const (
	blockVals = 32
	// latticeCap mirrors lorenzo's overflow guard.
	latticeCap = int64(1) << 50
	// chunkBlocks groups blocks for parallel encode/decode.
	chunkBlocks = 512
)

// chunksKey holds the per-chunk encode collectors in an arena.Ctx (arena
// batch slots, persistent across Reset so steady-state appends never grow).
var chunksKey = arena.NewAuxKey()

// encChunk is one chunk's persistent encode scratch: its packed payload
// writer and outlier collectors. Exactly one kernel invocation touches a
// given chunk slot per launch, so the slots need no locking.
type encChunk struct {
	w      bitio.Writer
	outPos []int
	outVal []float32
}

// CompressCtx encodes data under absolute error bound eb, drawing working
// memory from ctx (nil allocates). The returned container is a fresh
// allocation owned by the caller; only internal scratch is pooled.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, eb float64) ([]byte, error) {
	if eb <= 0 {
		return nil, errors.New("szp: error bound must be positive")
	}
	twoEB := 2 * eb
	n := len(data)
	nBlocks := (n + blockVals - 1) / blockVals
	nChunks := (nBlocks + chunkBlocks - 1) / chunkBlocks
	chunks := arena.Slots[encChunk](ctx, chunksKey, nChunks)
	for i := range chunks {
		chunks[i].w.Reset()
		chunks[i].outPos = chunks[i].outPos[:0]
		chunks[i].outVal = chunks[i].outVal[:0]
	}
	dev.Launch(nChunks, func(c int) {
		co := &chunks[c]
		w := &co.w
		for b := c * chunkBlocks; b < (c+1)*chunkBlocks && b < nBlocks; b++ {
			lo := b * blockVals
			hi := lo + blockVals
			if hi > n {
				hi = n
			}
			var deltas [blockVals]uint64
			var prev int64
			var maxd uint64
			for i := lo; i < hi; i++ {
				q := math.Round(float64(data[i]) / twoEB)
				var qi int64
				switch {
				case q > float64(latticeCap):
					qi = latticeCap
				case q < -float64(latticeCap):
					qi = -latticeCap
				case math.IsNaN(q):
					qi = prev // NaN: a finite lattice stand-in, stored as an outlier below
				default:
					qi = int64(q)
				}
				recon := float32(float64(qi) * twoEB)
				// Negated so that a NaN error fails the bound too.
				if !(math.Abs(float64(data[i])-float64(recon)) <= eb) {
					co.outPos = append(co.outPos, i)
					co.outVal = append(co.outVal, data[i])
				}
				z := bitio.ZigZag(qi - prev)
				prev = qi
				deltas[i-lo] = z
				if z > maxd {
					maxd = z
				}
			}
			width := uint(0)
			for v := maxd; v > 0; v >>= 1 {
				width++
			}
			if width == 0 {
				w.WriteBit(0) // zero block: single bitmap bit
				continue
			}
			w.WriteBit(1)
			w.WriteBits(uint64(width), 6)
			w.WritePacked64(deltas[:hi-lo], width)
		}
	})
	totalOut := 0
	totalPay := 0
	for i := range chunks {
		totalOut += len(chunks[i].outPos)
		totalPay += len(chunks[i].w.Bytes())
	}
	out := make([]byte, 0, totalPay+8*totalOut+4*nChunks+32)
	out = bitio.AppendUvarint(out, uint64(n))
	out = bitio.AppendUint64(out, math.Float64bits(eb))
	// Value outliers (rare): positions + raw values.
	out = bitio.AppendUvarint(out, uint64(totalOut))
	prevPos := 0
	for i := range chunks {
		for k, p := range chunks[i].outPos {
			out = bitio.AppendUvarint(out, uint64(p-prevPos))
			prevPos = p
			out = bitio.AppendUint32(out, math.Float32bits(chunks[i].outVal[k]))
		}
	}
	out = bitio.AppendUvarint(out, uint64(nChunks))
	for i := range chunks {
		out = bitio.AppendUvarint(out, uint64(len(chunks[i].w.Bytes())))
	}
	for i := range chunks {
		out = append(out, chunks[i].w.Bytes()...)
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
	var ebBits uint64
	for i := 0; i < 8; i++ {
		ebBits |= uint64(blob[off+i]) << (8 * i)
	}
	off += 8
	eb := math.Float64frombits(ebBits)
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, ErrCorrupt
	}
	twoEB := 2 * eb
	nOut64, nn := bitio.Uvarint(blob[off:])
	if nn == 0 {
		return nil, ErrCorrupt
	}
	off += nn
	if nOut64 > uint64(n) {
		return nil, ErrCorrupt
	}
	nOut := int(nOut64)
	outPos := ctx.Ints(nOut)
	outVal := ctx.F32(nOut)
	prevPos := 0
	for i := 0; i < nOut; i++ {
		d, nn := bitio.Uvarint(blob[off:])
		// Cap the delta before the int conversion below adds it to the
		// running position.
		if nn == 0 || d > 1<<33 {
			return nil, ErrCorrupt
		}
		off += nn
		prevPos += int(d)
		if prevPos < 0 || prevPos >= n || off+4 > len(blob) {
			return nil, ErrCorrupt
		}
		outPos[i] = prevPos
		var vb uint32
		for k := 0; k < 4; k++ {
			vb |= uint32(blob[off+k]) << (8 * k)
		}
		off += 4
		outVal[i] = math.Float32frombits(vb)
	}
	nChunks64, nn := bitio.Uvarint(blob[off:])
	if nn == 0 {
		return nil, ErrCorrupt
	}
	off += nn
	nBlocks := (n + blockVals - 1) / blockVals
	wantChunks := (nBlocks + chunkBlocks - 1) / chunkBlocks
	if n == 0 {
		wantChunks = 0
	}
	if nChunks64 != uint64(wantChunks) {
		return nil, ErrCorrupt
	}
	lens := ctx.Ints(wantChunks)
	total := 0
	for i := range lens {
		l, nn := bitio.Uvarint(blob[off:])
		// Cap each chunk length before the int conversion: a huge wire
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
	starts := ctx.Ints(wantChunks)
	pos := off
	for i, l := range lens {
		starts[i] = pos
		pos += l
	}
	out := ctx.F32(n)
	ok := ctx.Bytes(wantChunks)
	clear(ok)
	dev.Launch(wantChunks, func(c int) {
		var r bitio.Reader
		r.ResetBytes(blob[starts[c] : starts[c]+lens[c]])
		for b := c * chunkBlocks; b < (c+1)*chunkBlocks && b < nBlocks; b++ {
			lo := b * blockVals
			hi := lo + blockVals
			if hi > n {
				hi = n
			}
			flag, err := r.ReadBit()
			if err != nil {
				return
			}
			var prev int64
			if flag == 0 {
				// All-zero deltas: constant zero lattice.
				for i := lo; i < hi; i++ {
					out[i] = 0
				}
				continue
			}
			w64, err := r.ReadBits(6)
			if err != nil || w64 == 0 || w64 > 63 {
				return
			}
			var zs [blockVals]uint64
			z := zs[:hi-lo]
			if r.ReadPacked64(z, uint(w64)) != nil {
				return
			}
			o := out[lo:hi:hi]
			for i := range z {
				prev += bitio.UnZigZag(z[i])
				o[i] = float32(float64(prev) * twoEB)
			}
		}
		ok[c] = 1
	})
	for _, o := range ok {
		if o == 0 {
			return nil, ErrCorrupt
		}
	}
	for i, p := range outPos {
		out[p] = outVal[i]
	}
	return out, nil
}
