// Package lz implements an LZSS-family compressor with four container
// formats that act as open surrogates for the GPU LZ codecs benchmarked in
// Fig. 6 of the cuSZ-Hi paper:
//
//   - LZ4Lite:      byte-aligned greedy LZ with varint sequences (nvCOMP::LZ4)
//   - GPULZLite:    classic LZSS bit format, 4 KiB window (GPULZ)
//   - ZstdLite:     LZ parse + rANS-coded literal/sequence streams (nvCOMP::Zstd)
//   - GDeflateLite: LZ parse + Huffman-coded streams (nvCOMP::GDeflate)
//
// All variants share one hash-chain matcher; they differ in window size,
// match economics and entropy back-end, which is what separates the real
// codecs' Pareto positions.
//
// The *Ctx entry points thread a reusable arena.Ctx through the matcher
// (hash heads, chain links, sequence list) and the decoders' output
// buffers, so warm contexts re-code stream after stream with near-zero
// heap allocations on the byte-aligned variants (the entropy variants
// additionally pay their back-end's costs).
package lz

import (
	"errors"
	"fmt"

	"repro/internal/ans"
	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/huffman"
)

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("lz: corrupt stream")

// Variant selects a container format.
type Variant int

// Container formats.
const (
	LZ4Lite Variant = iota
	GPULZLite
	ZstdLite
	GDeflateLite
)

// String returns the surrogate's display name.
func (v Variant) String() string {
	switch v {
	case LZ4Lite:
		return "lz4-lite"
	case GPULZLite:
		return "gpulz-lite"
	case ZstdLite:
		return "zstd-lite"
	case GDeflateLite:
		return "gdeflate-lite"
	}
	return fmt.Sprintf("lz.Variant(%d)", int(v))
}

const (
	minMatch  = 4
	hashBits  = 15
	hashShift = 32 - hashBits
)

// maxOrigLen caps the declared decoded length of any container, so a
// hostile header cannot force a huge allocation or an unbounded expansion
// loop before real bytes are validated. It also fits int on 32-bit
// platforms, so the int conversions below can never wrap negative.
const maxOrigLen = 1<<31 - 1

// seq is one LZ sequence: litLen literals followed by a match.
type seq struct {
	litLen   int
	matchLen int // 0 only for the final literal run
	dist     int
}

// auxKey is this package's scratch slot in an arena.Ctx.
var auxKey = arena.NewAuxKey()

// lzScratch holds the cross-op sequence list; its backing array persists
// so steady-state parses stop growing it.
type lzScratch struct {
	seqs []seq
}

func scratchFor(ctx *arena.Ctx) *lzScratch {
	if s, ok := ctx.Aux(auxKey).(*lzScratch); ok {
		return s
	}
	s := &lzScratch{}
	ctx.SetAux(auxKey, s)
	return s
}

// hash4 is the per-position hash of the match finder.
//
//cuszhi:hotpath
func hash4(p []byte) uint32 {
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
	return (v * 2654435761) >> hashShift
}

// parse runs a greedy hash-chain parse of src. The hash heads, chain links
// and the returned sequence list are context scratch (valid until the next
// parse through the same context).
func parse(ctx *arena.Ctx, src []byte, window, maxChain, maxMatch int) []seq {
	s := scratchFor(ctx)
	seqs := s.seqs[:0]
	defer func() { s.seqs = seqs }()
	n := len(src)
	if n < minMatch {
		if n > 0 {
			seqs = append(seqs, seq{litLen: n})
		}
		return seqs
	}
	head := ctx.I32(1 << hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := ctx.I32(n)
	litStart := 0
	i := 0
	insert := func(pos int) {
		h := hash4(src[pos:])
		prev[pos] = head[h]
		head[h] = int32(pos)
	}
	for i+minMatch <= n {
		h := hash4(src[i:])
		cand := head[h]
		bestLen, bestDist := 0, 0
		chain := maxChain
		for cand >= 0 && chain > 0 && i-int(cand) <= window {
			c := int(cand)
			l := matchLen(src, c, i, maxMatch)
			if l > bestLen {
				bestLen, bestDist = l, i-c
				if l >= maxMatch {
					break
				}
			}
			cand = prev[c]
			chain--
		}
		if bestLen >= minMatch {
			seqs = append(seqs, seq{litLen: i - litStart, matchLen: bestLen, dist: bestDist})
			end := i + bestLen
			insert(i)
			for p := i + 1; p < end && p+minMatch <= n; p++ {
				insert(p)
			}
			i = end
			litStart = i
			continue
		}
		insert(i)
		i++
	}
	if litStart < n {
		seqs = append(seqs, seq{litLen: n - litStart})
	}
	return seqs
}

// matchLen extends a candidate match; it runs once per chain probe.
//
//cuszhi:hotpath
func matchLen(src []byte, a, b, maxMatch int) int {
	n := len(src)
	l := 0
	for b+l < n && l < maxMatch && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// outBuf reserves a decode output buffer from ctx: the declared length is
// honored up to a sanity multiple of the input size, so a hostile header
// cannot force a huge up-front allocation (legitimate extreme expansions
// simply regrow through append).
func outBuf(ctx *arena.Ctx, origLen, inLen int) []byte {
	reserve := origLen
	if lim := 1024*inLen + 1024; reserve > lim {
		reserve = lim
	}
	return ctx.Bytes(reserve)[:0]
}

// expand reconstructs the original data from sequences and a literal stream.
func expand(ctx *arena.Ctx, seqs []seq, lits []byte, origLen, inLen int) ([]byte, error) {
	out := outBuf(ctx, origLen, inLen)
	lp := 0
	for _, s := range seqs {
		if s.litLen < 0 || lp+s.litLen > len(lits) {
			return nil, ErrCorrupt
		}
		out = append(out, lits[lp:lp+s.litLen]...)
		lp += s.litLen
		if s.matchLen == 0 {
			continue
		}
		if s.dist <= 0 || s.dist > len(out) || s.matchLen < 0 ||
			s.matchLen > origLen-len(out) {
			return nil, ErrCorrupt
		}
		start := len(out) - s.dist
		for k := 0; k < s.matchLen; k++ {
			out = append(out, out[start+k]) // overlap-safe
		}
	}
	if len(out) != origLen {
		return nil, ErrCorrupt
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Containers.

// EncodeCtx compresses src with the chosen variant, drawing matcher and
// stage scratch from ctx (nil allocates). The returned stream is a fresh
// allocation owned by the caller.
func EncodeCtx(ctx *arena.Ctx, dev *gpusim.Device, src []byte, v Variant) ([]byte, error) {
	switch v {
	case LZ4Lite:
		return encodeVarint(ctx, src, 1<<16, 32, 1<<16), nil
	case GPULZLite:
		return encodeLZSS(ctx, src), nil
	case ZstdLite:
		return encodeEntropy(ctx, dev, src, true)
	case GDeflateLite:
		return encodeEntropy(ctx, dev, src, false)
	}
	return nil, fmt.Errorf("lz: unknown variant %d", v)
}

// DecodeCtx reverses EncodeCtx for the same variant. With a non-nil ctx
// the returned stream is context scratch, valid until the next ctx.Reset.
func DecodeCtx(ctx *arena.Ctx, dev *gpusim.Device, data []byte, v Variant) ([]byte, error) {
	switch v {
	case LZ4Lite:
		return decodeVarint(ctx, data)
	case GPULZLite:
		return decodeLZSS(ctx, data)
	case ZstdLite:
		return decodeEntropy(ctx, dev, data, true)
	case GDeflateLite:
		return decodeEntropy(ctx, dev, data, false)
	}
	// The variant is a caller-supplied API argument, not a wire value, so a
	// bad one is a usage error rather than stream corruption.
	//lint:ignore corrupterr variant comes from the caller, not the wire
	return nil, fmt.Errorf("lz: unknown variant %d", v)
}

// encodeVarint is the byte-aligned LZ4-like container:
// uvarint origLen, then per sequence: uvarint litLen, literals,
// uvarint matchLen (0 terminates), uvarint dist.
func encodeVarint(ctx *arena.Ctx, src []byte, window, maxChain, maxMatch int) []byte {
	seqs := parse(ctx, src, window, maxChain, maxMatch)
	out := make([]byte, 0, len(src)+len(src)/8+16)
	out = bitio.AppendUvarint(out, uint64(len(src)))
	pos := 0
	for _, s := range seqs {
		out = bitio.AppendUvarint(out, uint64(s.litLen))
		out = append(out, src[pos:pos+s.litLen]...)
		pos += s.litLen + s.matchLen
		out = bitio.AppendUvarint(out, uint64(s.matchLen))
		if s.matchLen > 0 {
			out = bitio.AppendUvarint(out, uint64(s.dist))
		}
	}
	// Explicit terminator for the case where the last seq had a match.
	out = bitio.AppendUvarint(out, 0)
	out = bitio.AppendUvarint(out, 0)
	return out
}

func decodeVarint(ctx *arena.Ctx, data []byte) ([]byte, error) {
	origLen64, n := bitio.Uvarint(data)
	if n == 0 || origLen64 > maxOrigLen {
		return nil, ErrCorrupt
	}
	origLen := int(origLen64)
	off := n
	out := outBuf(ctx, origLen, len(data))
	for {
		litLen, n := bitio.Uvarint(data[off:])
		if n == 0 || litLen > uint64(len(data)) {
			return nil, ErrCorrupt
		}
		off += n
		if off+int(litLen) > len(data) {
			return nil, ErrCorrupt
		}
		out = append(out, data[off:off+int(litLen)]...)
		off += int(litLen)
		if len(out) > origLen {
			return nil, ErrCorrupt
		}
		ml, n := bitio.Uvarint(data[off:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		off += n
		if ml == 0 {
			if litLen == 0 {
				break // terminator
			}
			continue
		}
		// Bound the match before replaying it: a hostile length must fail
		// here, not after an unbounded append loop. len(out) <= origLen is
		// guaranteed above, so the subtraction cannot wrap.
		if ml > uint64(origLen-len(out)) {
			return nil, ErrCorrupt
		}
		dist, n := bitio.Uvarint(data[off:])
		if n == 0 {
			return nil, ErrCorrupt
		}
		off += n
		if dist == 0 || int(dist) > len(out) {
			return nil, ErrCorrupt
		}
		start := len(out) - int(dist)
		for k := 0; k < int(ml); k++ {
			out = append(out, out[start+k])
		}
	}
	if len(out) != origLen {
		return nil, ErrCorrupt
	}
	return out, nil
}

// LZSS parameters for the GPULZ-like container.
const (
	lzssWindow  = 1 << 12 // 12-bit distances
	lzssLenBits = 6
	lzssMaxLen  = minMatch + (1 << lzssLenBits) - 1
)

func encodeLZSS(ctx *arena.Ctx, src []byte) []byte {
	seqs := parse(ctx, src, lzssWindow-1, 16, lzssMaxLen)
	w := bitio.NewWriter(len(src)/2 + 16)
	pos := 0
	for _, s := range seqs {
		for k := 0; k < s.litLen; k++ {
			w.WriteBit(0)
			w.WriteBits(uint64(src[pos+k]), 8)
		}
		pos += s.litLen
		if s.matchLen > 0 {
			w.WriteBit(1)
			w.WriteBits(uint64(s.dist), 12)
			w.WriteBits(uint64(s.matchLen-minMatch), lzssLenBits)
			pos += s.matchLen
		}
	}
	out := bitio.AppendUvarint(nil, uint64(len(src)))
	return append(out, w.Bytes()...)
}

func decodeLZSS(ctx *arena.Ctx, data []byte) ([]byte, error) {
	origLen64, n := bitio.Uvarint(data)
	if n == 0 || origLen64 > maxOrigLen {
		return nil, ErrCorrupt
	}
	origLen := int(origLen64)
	var r bitio.Reader
	r.ResetBytes(data[n:])
	out := outBuf(ctx, origLen, len(data))
	for len(out) < origLen {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, ErrCorrupt
		}
		if flag == 0 {
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, ErrCorrupt
			}
			out = append(out, byte(b))
			continue
		}
		dist, err := r.ReadBits(12)
		if err != nil {
			return nil, ErrCorrupt
		}
		ml, err := r.ReadBits(lzssLenBits)
		if err != nil {
			return nil, ErrCorrupt
		}
		l := int(ml) + minMatch
		if dist == 0 || int(dist) > len(out) || len(out)+l > origLen {
			return nil, ErrCorrupt
		}
		start := len(out) - int(dist)
		for k := 0; k < l; k++ {
			out = append(out, out[start+k])
		}
	}
	return out, nil
}

// encodeEntropy is the zstd/gdeflate-like container: the parse is split into
// a literal stream and a sequence stream, each entropy-coded.
func encodeEntropy(ctx *arena.Ctx, dev *gpusim.Device, src []byte, useANS bool) ([]byte, error) {
	seqs := parse(ctx, src, 1<<17, 64, 1<<16)
	lits := ctx.Bytes(len(src))[:0]
	seqBuf := ctx.Bytes(4*len(seqs) + 16)[:0]
	pos := 0
	for _, s := range seqs {
		lits = append(lits, src[pos:pos+s.litLen]...)
		pos += s.litLen + s.matchLen
		seqBuf = bitio.AppendUvarint(seqBuf, uint64(s.litLen))
		seqBuf = bitio.AppendUvarint(seqBuf, uint64(s.matchLen))
		if s.matchLen > 0 {
			seqBuf = bitio.AppendUvarint(seqBuf, uint64(s.dist))
		}
	}
	var litBlob, seqBlob []byte
	var err error
	if useANS {
		litBlob = ans.Encode(lits)
		seqBlob = ans.Encode(seqBuf)
	} else {
		// Huffman containers are fresh allocations, so both streams can
		// draw stage scratch from the same context back to back.
		litBlob, err = huffman.EncodeBytesCtx(ctx, dev, lits, nil)
		if err != nil {
			return nil, err
		}
		seqBlob, err = huffman.EncodeBytesCtx(ctx, dev, seqBuf, nil)
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, len(litBlob)+len(seqBlob)+24)
	out = bitio.AppendUvarint(out, uint64(len(src)))
	out = bitio.AppendUvarint(out, uint64(len(seqs)))
	out = bitio.AppendUvarint(out, uint64(len(litBlob)))
	out = append(out, litBlob...)
	out = bitio.AppendUvarint(out, uint64(len(seqBlob)))
	return append(out, seqBlob...), nil
}

func decodeEntropy(ctx *arena.Ctx, dev *gpusim.Device, data []byte, useANS bool) ([]byte, error) {
	origLen64, n := bitio.Uvarint(data)
	if n == 0 || origLen64 > maxOrigLen {
		return nil, ErrCorrupt
	}
	off := n
	nSeqs, n := bitio.Uvarint(data[off:])
	if n == 0 {
		return nil, ErrCorrupt
	}
	off += n
	litLen, n := bitio.Uvarint(data[off:])
	if n == 0 || litLen > uint64(len(data)) || off+n+int(litLen) > len(data) {
		return nil, ErrCorrupt
	}
	off += n
	litBlob := data[off : off+int(litLen)]
	off += int(litLen)
	seqLen, n := bitio.Uvarint(data[off:])
	if n == 0 || seqLen > uint64(len(data)) || off+n+int(seqLen) > len(data) {
		return nil, ErrCorrupt
	}
	off += n
	seqBlob := data[off : off+int(seqLen)]

	var lits, seqBuf []byte
	var err error
	if useANS {
		lits, err = ans.Decode(litBlob)
		if err != nil {
			return nil, err
		}
		seqBuf, err = ans.Decode(seqBlob)
	} else {
		// Arena slots advance in call order (no Reset between the two
		// streams), so the second decode never recycles the first's bytes.
		lits, err = huffman.DecodeBytesCtx(ctx, dev, litBlob)
		if err != nil {
			return nil, err
		}
		seqBuf, err = huffman.DecodeBytesCtx(ctx, dev, seqBlob)
	}
	if err != nil {
		return nil, err
	}
	// Every sequence spends at least two seqBuf bytes, so a count beyond
	// that is hostile — reject before sizing anything by it.
	if nSeqs > uint64(len(seqBuf)) {
		return nil, ErrCorrupt
	}
	s := scratchFor(ctx)
	seqs := s.seqs[:0]
	defer func() { s.seqs = seqs }()
	sp := 0
	for i := uint64(0); i < nSeqs; i++ {
		ll, n := bitio.Uvarint(seqBuf[sp:])
		if n == 0 || ll > maxOrigLen {
			return nil, ErrCorrupt
		}
		sp += n
		ml, n := bitio.Uvarint(seqBuf[sp:])
		if n == 0 || ml > maxOrigLen {
			return nil, ErrCorrupt
		}
		sp += n
		sq := seq{litLen: int(ll), matchLen: int(ml)}
		if ml > 0 {
			d, n := bitio.Uvarint(seqBuf[sp:])
			if n == 0 || d > maxOrigLen {
				return nil, ErrCorrupt
			}
			sp += n
			sq.dist = int(d)
		}
		seqs = append(seqs, sq)
	}
	return expand(ctx, seqs, lits, int(origLen64), len(data))
}
