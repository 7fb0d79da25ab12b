// Package huffman implements the canonical Huffman codec used as the
// entropy stage of cuSZ-Hi's CR-preferred lossless pipeline (Fig. 7) and of
// the cuSZ-L / cuSZ-I(B) baselines.
//
// Mirroring the GPU design, encoding is chunk-parallel: the symbol stream is
// split into fixed-size chunks, each chunk is encoded independently on the
// simulated device, and chunk byte offsets are recorded so decoding is also
// chunk-parallel (cf. Tian et al., cuSZ; Rivera et al., IPDPS'22 for the
// GPU Huffman decoder this emulates).
//
// Codes are canonical and length-limited to 15 bits (frequencies are
// smoothed and the tree rebuilt if the natural tree is deeper), and are
// stored bit-reversed so the LSB-first bit stream can be decoded with a
// DEFLATE-style lookup table. The decode table is two-level and
// multi-symbol: a primary probe over tableBits peeked bits resolves either
// one code, a *pair* of short codes in a single probe, or a sub-table
// pointer for codes longer than tableBits.
//
// Byte streams (DecodeBytesCtx, the quantization codes of every pipeline)
// decode through a third table beside those two: per probe, the run of up
// to 8 byte symbols whose codes lie wholly inside the probe, packed into
// one uint64 with the run's length and total bit count. At 1–2.5 bits per
// symbol a probe holds 5–9 codes, so the byte kernel usually stores 8
// output bytes per lookup, straight into the output, as the GPU decoder
// resolves many codes per lookup. It falls back to one symbol at a time
// through the primary and sub tables for codes longer than tableBits, a
// symbol above 255 (which is corrupt), bits running out, and a chunk's
// last 7 symbols, so it accepts and rejects exactly the streams the
// one-symbol decoder does.
//
// Encoding, of byte and uint16 streams alike, runs one chunk kernel over
// a per-call table of packed (code, length) entries indexed by symbol.
// Three codes at a time go into a register-held 64-bit accumulator and
// out in one unaligned 8-byte store; a symbol without a code sets a flag
// bit the kernel checks once per chunk, and the output's capacity is
// checked once per block of symbols. Byte streams are read as bytes,
// never widened.
//
// The *Ctx entry points draw every working buffer (histograms, tree
// scratch, the encode table, per-chunk code buffers, decode tables,
// outputs) from a reusable arena.Ctx, so steady-state encode/decode
// performs near-zero heap allocations; the plain entry points are thin
// nil-ctx wrappers.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

const (
	// MaxCodeLen is the length cap for canonical codes.
	MaxCodeLen = 15
	// DefaultChunk is the number of symbols encoded per parallel chunk.
	DefaultChunk = 1 << 16
)

var (
	// ErrCorrupt reports a malformed Huffman container.
	ErrCorrupt = errors.New("huffman: corrupt stream")
	// ErrTooManySymbols reports an alphabet whose used-symbol count cannot
	// satisfy the 15-bit length cap.
	ErrTooManySymbols = errors.New("huffman: too many distinct symbols for 15-bit codes")
)

// code is a canonical, bit-reversed Huffman code.
type code struct {
	bits uint16
	len  uint8
}

// ---------------------------------------------------------------------------
// Per-context scratch.

// auxKey is this package's slot in an arena.Ctx.
var auxKey = arena.NewAuxKey()

// scratch bundles every reusable working buffer of the codec. It lives in
// an arena.Ctx aux slot (one per worker) and survives Ctx.Reset, so a
// worker that keeps coding same-shaped shards stops allocating entirely.
// It is not reentrant: one encode or decode at a time per context.
type scratch struct {
	freq      []int64
	lens      []uint8
	codes     []code
	hdr       []byte
	chunkBufs [][]byte
	chunkLens []int
	starts    []int

	// Tree-construction scratch (buildLengths / huffmanDepths).
	f        []int64
	nodes    []treeNode
	leaves   []int32
	internal []int32
	stack    []treeFrame

	table decodeTable
	enc   *encTable
	encHi int // entries at or above encHi hold encBad

	// Kernel parameter block + prebuilt chunk jobs: the closures read
	// their inputs from k, so one closure allocation per context serves
	// every launch (see internal/arena).
	k struct {
		symbols []uint16
		bytes   []byte
		src     []byte
		out     []uint16
		out8    []byte
		chunk   int
		failed  atomic.Bool
	}
	encJob func(int)
	decJob func(int)
}

func scratchFor(ctx *arena.Ctx) *scratch {
	if s, ok := ctx.Aux(auxKey).(*scratch); ok {
		return s
	}
	s := &scratch{}
	ctx.SetAux(auxKey, s) // no-op (fresh scratch each call) when ctx is nil
	return s
}

func growI64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

// ---------------------------------------------------------------------------
// Code-length construction.

// buildLengths computes Huffman code lengths from frequencies, capped at
// MaxCodeLen, into s.lens. Zero-frequency symbols get length 0.
func (s *scratch) buildLengths(freq []int64) ([]uint8, error) {
	n := len(freq)
	if cap(s.lens) < n {
		s.lens = make([]uint8, n)
	}
	lens := s.lens[:n]
	clear(lens)
	used := 0
	last := -1
	for sym, f := range freq {
		if f > 0 {
			used++
			last = sym
		}
	}
	switch used {
	case 0:
		return lens, nil
	case 1:
		lens[last] = 1
		return lens, nil
	}
	if used > 1<<MaxCodeLen {
		return nil, ErrTooManySymbols
	}
	s.f = growI64(s.f, n)
	f := s.f
	copy(f, freq)
	for {
		depth := s.huffmanDepths(f, lens)
		if depth <= MaxCodeLen {
			return lens, nil
		}
		// Smooth the distribution and retry; converges to uniform lengths.
		for i := range f {
			if f[i] > 0 {
				f[i] = (f[i] >> 1) | 1
			}
		}
	}
}

type treeNode struct {
	w           int64
	sym         int32 // >= 0 for leaves
	left, right int32 // node indices for internal nodes
}

type treeFrame struct{ idx, depth int32 }

// huffmanDepths runs the classic two-queue Huffman construction over the
// non-zero frequencies, writing depths into lens and returning the max depth.
func (s *scratch) huffmanDepths(freq []int64, lens []uint8) int {
	nodes := s.nodes[:0]
	leaves := s.leaves[:0]
	for sym, f := range freq {
		if f > 0 {
			nodes = append(nodes, treeNode{w: f, sym: int32(sym), left: -1, right: -1})
			leaves = append(leaves, int32(len(nodes)-1))
		}
	}
	slices.SortFunc(leaves, func(i, j int32) int {
		a, b := nodes[i], nodes[j]
		if a.w != b.w {
			if a.w < b.w {
				return -1
			}
			return 1
		}
		return int(a.sym - b.sym)
	})
	// Two-queue merge: sorted leaves queue + FIFO internal queue.
	internal := s.internal[:0]
	li, ii := 0, 0
	pop := func() int32 {
		if li < len(leaves) && (ii >= len(internal) || nodes[leaves[li]].w <= nodes[internal[ii]].w) {
			li++
			return leaves[li-1]
		}
		ii++
		return internal[ii-1]
	}
	remaining := len(leaves)
	root := leaves[0]
	for remaining > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, treeNode{w: nodes[a].w + nodes[b].w, sym: -1, left: a, right: b})
		internal = append(internal, int32(len(nodes)-1))
		root = int32(len(nodes) - 1)
		remaining--
	}
	// Iterative depth assignment.
	maxDepth := int32(0)
	stack := append(s.stack[:0], treeFrame{root, 0})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[fr.idx]
		if nd.sym >= 0 {
			lens[nd.sym] = uint8(fr.depth)
			if fr.depth > maxDepth {
				maxDepth = fr.depth
			}
			continue
		}
		stack = append(stack, treeFrame{nd.left, fr.depth + 1}, treeFrame{nd.right, fr.depth + 1})
	}
	s.nodes, s.leaves, s.internal, s.stack = nodes[:0], leaves[:0], internal[:0], stack[:0]
	return int(maxDepth)
}

// canonicalCodes assigns canonical codes (bit-reversed for LSB-first I/O)
// from lengths, into s.codes.
func (s *scratch) canonicalCodes(lens []uint8) []code {
	if cap(s.codes) < len(lens) {
		s.codes = make([]code, len(lens))
	}
	codes := s.codes[:len(lens)]
	clear(codes)
	var lenCount [MaxCodeLen + 1]int
	for _, l := range lens {
		lenCount[l]++
	}
	var next [MaxCodeLen + 2]uint32
	c := uint32(0)
	for l := 1; l <= MaxCodeLen; l++ {
		c = (c + uint32(lenCount[l-1])) << 1
		next[l] = c
	}
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		v := next[l]
		next[l]++
		codes[sym] = code{bits: uint16(bits.Reverse16(uint16(v)) >> (16 - l)), len: l}
	}
	return codes
}

// ---------------------------------------------------------------------------
// Multi-symbol decode table.

// tableBits is the width of the primary decode probe. Codes no longer than
// tableBits resolve in one lookup; when two short codes fit the probe the
// entry emits both symbols at once. Longer codes chain to a sub-table over
// the remaining MaxCodeLen-tableBits bits, exactly as in DEFLATE decoders.
const tableBits = 12

// Primary entry layout (uint64):
//
//	kind    bits 62..63  0 invalid, 1 single, 2 pair, 3 sub-table
//	sym1    bits 0..15   first symbol (single, pair)
//	sym2    bits 16..31  second symbol (pair)
//	len1    bits 32..37  first code length (single, pair)
//	total   bits 40..45  combined length (pair)
//	off     bits 0..23   sub-table offset into sub (sub-table)
//	gbits   bits 32..35  sub-table index width (sub-table)
//
// Sub entry layout (uint32): 0 invalid; else sym bits 0..15, total code
// length bits 16..21.
//
// Byte multi-symbol table (byte alphabets only; built by buildByteTable):
// for each of the 1<<tableBits probe values v, bytes[v] holds in byte k
// the k-th symbol of the longest run of at most 8 codes that lie wholly
// inside v's tableBits bits, all of them primary (single or pair) codes
// of symbols <= 255. info[v] holds the run length n in bits 8..15 and
// the run's total code length in bits 0..7; a probe whose first code
// cannot start a run (sub-table, invalid, symbol > 255) has n = 0 and a
// total of noRun, which no accumulator can hold, so the kernel's single
// "total fits the loaded bits" test also rejects it.
const (
	kindShift  = 62
	kindSingle = 1
	kindPair   = 2
	kindSub    = 3

	maxRun = 8
	noRun  = 0xff
)

type decodeTable struct {
	primary []uint64
	sub     []uint32
	bytes   []uint64
	info    []uint16
}

// buildDecodeTable constructs the two-level multi-symbol LUT from code
// lengths (which may come from a hostile stream: over-subscribed length
// sets are rejected, incomplete ones leave invalid entries that fail
// decoding).
func (s *scratch) buildDecodeTable(lens []uint8) (*decodeTable, error) {
	var kraft uint64
	for _, l := range lens {
		if l > 0 {
			kraft += 1 << (MaxCodeLen - l)
		}
	}
	if kraft > 1<<MaxCodeLen {
		return nil, fmt.Errorf("%w: overlapping codes", ErrCorrupt)
	}
	codes := s.canonicalCodes(lens)
	t := &s.table
	if cap(t.primary) < 1<<tableBits {
		t.primary = make([]uint64, 1<<tableBits)
	}
	t.primary = t.primary[:1<<tableBits]
	clear(t.primary)
	// Short codes: replicate into every primary slot whose low bits match.
	for sym, cd := range codes {
		if cd.len == 0 || cd.len > tableBits {
			continue
		}
		e := kindSingle<<kindShift | uint64(cd.len)<<32 | uint64(sym)
		step := 1 << cd.len
		for v := int(cd.bits); v < 1<<tableBits; v += step {
			t.primary[v] = e
		}
	}
	// Long codes, pass 1: mark their primary slots and find each group's
	// sub-table width (group max length minus tableBits).
	nLong := 0
	for _, cd := range codes {
		if cd.len <= tableBits {
			continue
		}
		nLong++
		v := int(cd.bits) & (1<<tableBits - 1)
		gbits := uint64(cd.len) - tableBits
		if e := t.primary[v]; e>>kindShift == kindSub && (e>>32)&0xf > gbits {
			gbits = (e >> 32) & 0xf
		}
		t.primary[v] = kindSub<<kindShift | gbits<<32
	}
	// Pass 2: allocate one sub-table per marked slot.
	sub := t.sub[:0]
	if nLong > 0 {
		for v, e := range t.primary {
			if e>>kindShift != kindSub {
				continue
			}
			size := 1 << ((e >> 32) & 0xf)
			off := len(sub)
			if off+size <= cap(sub) {
				sub = sub[:off+size]
			} else {
				sub = append(sub, make([]uint32, size)...)
			}
			clear(sub[off : off+size])
			t.primary[v] = e | uint64(off)
		}
	}
	t.sub = sub
	// Pass 3: fill sub-table entries.
	for sym, cd := range codes {
		if cd.len <= tableBits {
			continue
		}
		e := t.primary[int(cd.bits)&(1<<tableBits-1)]
		off := int(e & 0xffffff)
		gbits := uint((e >> 32) & 0xf)
		se := uint32(cd.len)<<16 | uint32(sym)
		step := 1 << (uint(cd.len) - tableBits)
		for w := int(cd.bits) >> tableBits; w < 1<<gbits; w += step {
			t.sub[off+w] = se
		}
	}
	// Pairing pass: when a slot's first code leaves room for a complete
	// second code inside the probe, emit both symbols per lookup.
	for v, e := range t.primary {
		if e>>kindShift != kindSingle {
			continue
		}
		len1 := (e >> 32) & 0x3f
		if len1 >= tableBits {
			continue
		}
		e2 := t.primary[v>>len1]
		k2 := e2 >> kindShift
		if k2 != kindSingle && k2 != kindPair {
			continue
		}
		len2 := (e2 >> 32) & 0x3f
		if len2 == 0 || len1+len2 > tableBits {
			continue
		}
		sym2 := e2 & 0xffff
		t.primary[v] = kindPair<<kindShift | (len1+len2)<<40 | len1<<32 | sym2<<16 | e&0xffff
	}
	return t, nil
}

// buildByteTable fills the byte multi-symbol table from the primary table
// buildDecodeTable just built: each probe value is decoded greedily, code
// by code as decodeChunk would, until maxRun symbols, a code that runs
// past the probe's bits, or an entry that is not a primary code of a
// symbol <= 255.
func (t *decodeTable) buildByteTable() {
	if cap(t.bytes) < 1<<tableBits {
		t.bytes = make([]uint64, 1<<tableBits)
		t.info = make([]uint16, 1<<tableBits)
	}
	t.bytes = t.bytes[:1<<tableBits]
	t.info = t.info[:1<<tableBits]
	for v := range t.bytes {
		var run uint64
		n, used := uint64(0), uint64(0)
		for n < maxRun {
			e := t.primary[v>>used]
			if k := e >> kindShift; k != kindSingle && k != kindPair {
				break
			}
			sym, l := e&0xffff, (e>>32)&0x3f
			if sym > 255 || used+l > tableBits {
				break
			}
			run |= sym << (8 * n)
			n++
			used += l
		}
		if n == 0 {
			used = noRun
		}
		t.bytes[v] = run
		t.info[v] = uint16(n<<8 | used)
	}
}

// ---------------------------------------------------------------------------
// Code-length serialization.

// appendLengthsRLE serializes code lengths as (run, len) pairs.
func appendLengthsRLE(dst []byte, lens []uint8) []byte {
	nPairs := 0
	for i := 0; i < len(lens); {
		j := i
		for j < len(lens) && lens[j] == lens[i] {
			j++
		}
		nPairs++
		i = j
	}
	dst = bitio.AppendUvarint(dst, uint64(nPairs))
	for i := 0; i < len(lens); {
		j := i
		for j < len(lens) && lens[j] == lens[i] {
			j++
		}
		dst = bitio.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, lens[i])
		i = j
	}
	return dst
}

// parseLengthsRLE decodes a length section into dst (reused if roomy).
func parseLengthsRLE(p []byte, alphabet int, dst []uint8) ([]uint8, int, error) {
	nPairs, n := bitio.Uvarint(p)
	if n == 0 {
		return nil, 0, ErrCorrupt
	}
	off := n
	if cap(dst) < alphabet {
		dst = make([]uint8, 0, alphabet)
	}
	lens := dst[:0]
	for i := uint64(0); i < nPairs; i++ {
		run, n := bitio.Uvarint(p[off:])
		if n == 0 {
			return nil, 0, ErrCorrupt
		}
		off += n
		if off >= len(p) {
			return nil, 0, ErrCorrupt
		}
		l := p[off]
		off++
		if l > MaxCodeLen {
			return nil, 0, ErrCorrupt
		}
		if uint64(len(lens))+run > uint64(alphabet) {
			return nil, 0, ErrCorrupt
		}
		for r := uint64(0); r < run; r++ {
			lens = append(lens, l)
		}
	}
	if len(lens) != alphabet {
		return nil, 0, ErrCorrupt
	}
	return lens, off, nil
}

// ---------------------------------------------------------------------------
// Encoding.

// Packed encode-table entry (uint32): the code's bit-reversed bits in
// 0..15 and its length in 16..19. A symbol that has no code, because its
// length is 0 or it lies outside the alphabet, holds encBad instead: no
// bits, length 0, and a flag bit the kernel ORs across a chunk and checks
// once at its end.
const (
	encLenShift = 16
	encBad      = 1 << 31

	// encGroup codes go into the accumulator per 8-byte store: three
	// 15-bit codes on top of fewer than 8 pending bits fit in 64.
	encGroup = 3
	// encBlock is the number of symbols encodeChunk codes per capacity
	// check, a multiple of encGroup.
	encBlock = 64 * encGroup
	// encBlockBytes bounds what one block writes: its codes at MaxCodeLen
	// bits each, plus the 8-byte store that may start at its last byte.
	encBlockBytes = encBlock*MaxCodeLen/8 + 8
)

// encTable is the per-call encode table, indexed by symbol. It spans the
// whole uint16 range, so a symbol stream of either width indexes it with
// no bounds check and an out-of-alphabet symbol reads encBad.
type encTable [1 << 16]uint32

// fillEncTable packs codes into s.enc, keeping the invariant that every
// entry at or above s.encHi is encBad.
func (s *scratch) fillEncTable(codes []code) {
	if s.enc == nil {
		s.enc = new(encTable)
		for i := range s.enc {
			s.enc[i] = encBad
		}
	}
	for sym, cd := range codes {
		e := uint32(encBad)
		if cd.len != 0 {
			e = uint32(cd.bits) | uint32(cd.len)<<encLenShift
		}
		s.enc[sym] = e
	}
	for sym := len(codes); sym < s.encHi; sym++ {
		s.enc[sym] = encBad
	}
	s.encHi = len(codes)
}

// encodeChunk appends the codes of syms to buf at bit offset 8*pos+nacc,
// where acc holds the nacc < 8 pending bits that buf[pos] also holds. It
// checks buf's capacity once per block of encBlock symbols (and once for
// the last, shorter block); when a block's worst case no longer fits, it
// returns the symbols it has not coded, for the caller to grow buf and
// resume. Full blocks go through encodeBlock; the last block stores
// after every code. bad is the OR of every table entry used, so
// bad&encBad reports a symbol without a code.
//
//cuszhi:hotpath
func encodeChunk[S byte | uint16](syms []S, t *encTable, buf []byte, pos int, acc uint64, nacc uint) (rest []S, _ int, _ uint64, _ uint, bad uint32) {
	for len(syms) >= encBlock && pos+encBlockBytes <= len(buf) {
		var o uint
		o, acc, nacc, bad = encodeBlock((*[encBlock]S)(syms), t, (*[encBlockBytes]byte)(buf[pos:]), acc, nacc, bad)
		syms = syms[encBlock:]
		pos += int(o)
	}
	if len(syms) < encBlock && pos+encBlockBytes <= len(buf) {
		for _, sym := range syms {
			e := t[sym]
			bad |= e
			acc |= uint64(e&0xffff) << (nacc & 63)
			nacc += uint(e>>encLenShift) & 0xf
			binary.LittleEndian.PutUint64(buf[pos:], acc)
			pos += int(nacc >> 3)
			acc >>= nacc & 56
			nacc &= 7
		}
		syms = syms[len(syms):]
	}
	return syms, pos, acc, nacc, bad
}

// encodeBlock codes one full block into out, which starts at the byte
// holding the nacc < 8 pending bits of acc, and returns how many whole
// bytes it wrote. Each group of encGroup codes enters the register
// accumulator and leaves in one unaligned 8-byte store, after which the
// offset advances by the whole bytes written. The shift counts are masked
// to 6 bits, which changes nothing (nacc stays below 64) but spares each
// shift Go's count >= 64 handling; blk and out are array pointers, so
// only the store's offset is bounds-checked, against a constant. It is a
// function of its own so that its loop has the registers to itself.
//
//cuszhi:hotpath
func encodeBlock[S byte | uint16](blk *[encBlock]S, t *encTable, out *[encBlockBytes]byte, acc uint64, nacc uint, bad uint32) (o uint, _ uint64, _ uint, _ uint32) {
	for j := 0; j < encBlock-2; j += encGroup {
		e := t[blk[j]]
		bad |= e
		acc |= uint64(e&0xffff) << (nacc & 63)
		nacc += uint(e>>encLenShift) & 0xf
		e = t[blk[j+1]]
		bad |= e
		acc |= uint64(e&0xffff) << (nacc & 63)
		nacc += uint(e>>encLenShift) & 0xf
		e = t[blk[j+2]]
		bad |= e
		acc |= uint64(e&0xffff) << (nacc & 63)
		nacc += uint(e>>encLenShift) & 0xf
		binary.LittleEndian.PutUint64(out[o:o+8], acc)
		o += nacc >> 3
		acc >>= nacc & 56
		nacc &= 7
	}
	return o, acc, nacc, bad
}

// encodeChunkBuf codes syms into buf's storage through encodeChunk,
// doubling buf whenever a block may not fit, and returns the chunk's
// bytes: the bit stream padded with zero bits to a whole byte. The grown
// buffer is the returned slice, so a caller that keeps it reaches a
// steady state with no growth. bad reports a symbol without a code.
func encodeChunkBuf[S byte | uint16](syms []S, t *encTable, buf []byte) (_ []byte, bad uint32) {
	buf = buf[:cap(buf)]
	pos, acc, nacc := 0, uint64(0), uint(0)
	for {
		var b uint32
		syms, pos, acc, nacc, b = encodeChunk(syms, t, buf, pos, acc, nacc)
		bad |= b
		if len(syms) == 0 {
			break
		}
		grown := make([]byte, 2*len(buf)+encBlockBytes)
		copy(grown, buf[:pos]) // buf[pos]'s pending bits are still in acc
		buf = grown
	}
	if nacc > 0 {
		pos++
	}
	return buf[:pos], bad
}

// EncodeCtx compresses symbols drawn from [0, alphabet) into a
// self-contained container, drawing scratch from ctx (nil allocates).
// Chunks are encoded in parallel on dev. freq, when non-nil, must be the
// exact histogram of symbols over [0, alphabet) — callers that already
// histogram during quantization pass it to skip the counting sweep here
// (the quantize+histogram fusion); nil recounts internally.
func EncodeCtx(ctx *arena.Ctx, dev *gpusim.Device, symbols []uint16, alphabet int, freq []int64) ([]byte, error) {
	if alphabet <= 0 || alphabet > 1<<16 {
		return nil, fmt.Errorf("huffman: bad alphabet %d", alphabet)
	}
	s := scratchFor(ctx)
	if freq == nil {
		s.freq = growI64(s.freq, alphabet)
		freq = s.freq
		clear(freq)
		for _, sym := range symbols {
			if int(sym) >= alphabet {
				return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", sym, alphabet)
			}
			freq[sym]++
		}
	} else if err := checkHistogram(freq, alphabet, len(symbols)); err != nil {
		return nil, err
	}
	return s.encode(dev, symbols, nil, alphabet, freq)
}

// checkHistogram verifies a caller-supplied histogram. It replaces the
// per-symbol range check of the counting sweep, so it checks the cheap
// invariant that holds for any exact histogram: the right length, counts
// that are non-negative and sum to the stream length. A histogram that
// passes but still disagrees with the stream gives some used symbol no
// code, which the encode kernel reports.
func checkHistogram(freq []int64, alphabet, n int) error {
	if len(freq) != alphabet {
		return fmt.Errorf("huffman: histogram length %d != alphabet %d", len(freq), alphabet)
	}
	var sum int64
	for _, f := range freq {
		if f < 0 {
			return fmt.Errorf("huffman: negative histogram count %d", f)
		}
		sum += f
	}
	if sum != int64(n) {
		return fmt.Errorf("huffman: histogram sums to %d for %d symbols", sum, n)
	}
	return nil
}

// encode writes the container for the symbol stream, or for the byte
// stream p when that is non-nil, under the codes freq builds. It codes
// the chunks in parallel on dev, each through encodeChunkBuf into its
// pooled s.chunkBufs slot.
func (s *scratch) encode(dev *gpusim.Device, symbols []uint16, p []byte, alphabet int, freq []int64) ([]byte, error) {
	lens, err := s.buildLengths(freq)
	if err != nil {
		return nil, err
	}
	s.fillEncTable(s.canonicalCodes(lens))
	n := len(symbols)
	if p != nil {
		n = len(p)
	}

	chunk := DefaultChunk
	nChunks := (n + chunk - 1) / chunk
	if cap(s.chunkBufs) < nChunks {
		s.chunkBufs = append(s.chunkBufs[:cap(s.chunkBufs)], make([][]byte, nChunks-cap(s.chunkBufs))...)
	}
	s.chunkBufs = s.chunkBufs[:nChunks] // encJob indexes via s.chunkBufs
	chunkBufs := s.chunkBufs
	// Size each chunk's buffer from the histogram's exact total bit count,
	// plus one block of headroom for the kernel's capacity check. A skewed
	// chunk may still grow; the grown buffer is kept in the scratch slot,
	// so steady-state reuse converges to zero growth.
	if nChunks > 0 {
		var totalBits uint64
		for sym, f := range freq {
			totalBits += uint64(f) * uint64(lens[sym])
		}
		perChunk := int(totalBits / uint64(nChunks) / 8)
		est := perChunk + perChunk/8 + encBlockBytes
		for b := range chunkBufs {
			if cap(chunkBufs[b]) < est {
				chunkBufs[b] = make([]byte, 0, est)
			}
		}
	}
	s.k.symbols, s.k.bytes, s.k.chunk = symbols, p, chunk
	s.k.failed.Store(false)
	if s.encJob == nil {
		k := &s.k
		s.encJob = func(b int) {
			lo := b * k.chunk
			var bad uint32
			if k.bytes != nil {
				hi := min(lo+k.chunk, len(k.bytes))
				s.chunkBufs[b], bad = encodeChunkBuf(k.bytes[lo:hi], s.enc, s.chunkBufs[b])
			} else {
				hi := min(lo+k.chunk, len(k.symbols))
				s.chunkBufs[b], bad = encodeChunkBuf(k.symbols[lo:hi], s.enc, s.chunkBufs[b])
			}
			// Only reachable via a caller histogram that disagrees with
			// the stream (the nil-freq path validates while counting): a
			// symbol without a code would silently emit an undecodable
			// container.
			if bad&encBad != 0 {
				k.failed.Store(true)
			}
		}
	}
	dev.Launch(nChunks, s.encJob)
	// Drop the caller's stream so a pooled ctx never pins it.
	s.k.symbols, s.k.bytes = nil, nil
	if s.k.failed.Load() {
		return nil, fmt.Errorf("huffman: histogram disagrees with the symbol stream")
	}

	hdr := s.hdr[:0]
	hdr = bitio.AppendUvarint(hdr, uint64(alphabet))
	hdr = appendLengthsRLE(hdr, lens)
	hdr = bitio.AppendUvarint(hdr, uint64(n))
	hdr = bitio.AppendUvarint(hdr, uint64(chunk))
	hdr = bitio.AppendUvarint(hdr, uint64(nChunks))
	total := 0
	for _, cb := range chunkBufs {
		hdr = bitio.AppendUvarint(hdr, uint64(len(cb)))
		total += len(cb)
	}
	s.hdr = hdr
	out := make([]byte, 0, len(hdr)+total)
	out = append(out, hdr...)
	for _, cb := range chunkBufs {
		out = append(out, cb...)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Decoding.

// DecodeCtx reverses EncodeCtx. With a non-nil ctx the returned slice is
// context scratch, valid until the next ctx.Reset.
func DecodeCtx(ctx *arena.Ctx, dev *gpusim.Device, data []byte) ([]uint16, error) {
	s := scratchFor(ctx)
	nSyms, chunk, err := s.parseContainer(data)
	if err != nil {
		return nil, err
	}
	out := ctx.U16(nSyms)
	if err := s.launchDecode(dev, data, chunk, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// parseContainer validates data's header and chunk directory, records
// each chunk's payload span in s.starts/s.chunkLens, and builds the
// primary and sub decode tables. It returns the symbol count and the
// chunk size.
func (s *scratch) parseContainer(data []byte) (nSyms, chunk int, err error) {
	alphabet64, n := bitio.Uvarint(data)
	if n == 0 || alphabet64 == 0 || alphabet64 > 1<<16 {
		return 0, 0, ErrCorrupt
	}
	off := n
	lens, used, err := parseLengthsRLE(data[off:], int(alphabet64), s.lens)
	if err != nil {
		return 0, 0, err
	}
	s.lens = lens
	off += used
	// Every count below comes off the wire: cap each through the shared
	// helper before it is converted, so a 2^63-scale value can neither wrap
	// an int negative nor overflow the ceiling division that validates the
	// chunk count.
	nSyms64, n := bitio.Uvarint(data[off:])
	if n == 0 {
		return 0, 0, ErrCorrupt
	}
	off += n
	nSyms, ok := bitio.IntLen(nSyms64)
	if !ok {
		return 0, 0, ErrCorrupt
	}
	chunk64, n := bitio.Uvarint(data[off:])
	if n == 0 || chunk64 == 0 {
		return 0, 0, ErrCorrupt
	}
	off += n
	chunk, ok = bitio.IntLen(chunk64)
	if !ok {
		return 0, 0, ErrCorrupt
	}
	nChunks64, n := bitio.Uvarint(data[off:])
	if n == 0 {
		return 0, 0, ErrCorrupt
	}
	off += n
	nChunks, ok := bitio.IntLen(nChunks64)
	if !ok || nChunks > len(data) {
		return 0, 0, ErrCorrupt
	}
	want := (nSyms + chunk - 1) / chunk
	if nSyms == 0 {
		want = 0
	}
	if nChunks != want {
		return 0, 0, ErrCorrupt
	}
	if cap(s.chunkLens) < nChunks {
		s.chunkLens = make([]int, nChunks)
		s.starts = make([]int, nChunks)
	}
	s.chunkLens = s.chunkLens[:nChunks]
	chunkLens := s.chunkLens
	total := 0
	for i := range chunkLens {
		l, n := bitio.Uvarint(data[off:])
		// Clamp each declared length to the container size before int
		// conversion: a 2^63-scale value would go negative, slip past the
		// sum check below, and panic slicing the chunk.
		if n == 0 || l > uint64(len(data)) {
			return 0, 0, ErrCorrupt
		}
		off += n
		chunkLens[i] = int(l)
		total += int(l)
		if total > len(data) {
			return 0, 0, ErrCorrupt
		}
	}
	if off+total > len(data) {
		return 0, 0, ErrCorrupt
	}
	// Every symbol costs at least one payload bit, so a header declaring
	// more symbols than the payload can hold is hostile — reject it before
	// sizing the output (allocation-bomb hardening).
	if int64(nSyms) > int64(total)*8 {
		return 0, 0, ErrCorrupt
	}
	s.starts = s.starts[:nChunks]
	pos := off
	for i, l := range chunkLens {
		s.starts[i] = pos
		pos += l
	}
	if _, err := s.buildDecodeTable(lens); err != nil {
		return 0, 0, err
	}
	return nSyms, chunk, nil
}

// launchDecode decodes every chunk of data in parallel on dev: into out8
// with decodeChunkBytes when out8 is non-nil, else into out with
// decodeChunk. parseContainer must have run on data.
func (s *scratch) launchDecode(dev *gpusim.Device, data []byte, chunk int, out []uint16, out8 []byte) error {
	s.k.src, s.k.chunk, s.k.out, s.k.out8 = data, chunk, out, out8
	s.k.failed.Store(false)
	if s.decJob == nil {
		k := &s.k
		s.decJob = func(b int) {
			start := s.starts[b]
			src := k.src[start : start+s.chunkLens[b]]
			lo := b * k.chunk
			var err error
			if k.out8 != nil {
				err = decodeChunkBytes(src, &s.table, k.out8[lo:min(lo+k.chunk, len(k.out8))])
			} else {
				err = decodeChunk(src, &s.table, k.out[lo:min(lo+k.chunk, len(k.out))])
			}
			if err != nil {
				k.failed.Store(true)
			}
		}
	}
	dev.Launch(len(s.starts), s.decJob)
	s.k.src = nil // drop the caller's container so a pooled ctx never pins it
	if s.k.failed.Load() {
		return ErrCorrupt
	}
	return nil
}

// refill tops the LSB-first accumulator up to at least 57 bits, in one
// unaligned 64-bit load when at least 8 source bytes remain; the byte
// loop handles the tail. Both paths leave identical (acc, nacc, pos)
// state.
//
// The kernels refill only when fewer than MaxCodeLen bits remain: every
// probe, sub-table lookup and run then reads loaded bits (or the zero
// padding past the end of src, exactly as an eager refill would), and
// the load stays off the table-lookup chain for the next 3–5 probes.
func refill(src []byte, pos int, acc uint64, nacc uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		v := binary.LittleEndian.Uint64(src[pos:])
		n := (64 - nacc) >> 3
		v &= uint64(1)<<(8*n) - 1 // 8n == 64 wraps the mask to ^0
		return pos + int(n), acc | v<<nacc, nacc + 8*n
	}
	for nacc <= 56 && pos < len(src) {
		acc |= uint64(src[pos]) << nacc
		pos++
		nacc += 8
	}
	return pos, acc, nacc
}

// decodeChunk decodes exactly len(dst) symbols from src. Each primary
// probe resolves one short code, two short codes at once, or chains to a
// sub-table for codes longer than tableBits.
//
//cuszhi:hotpath
func decodeChunk(src []byte, t *decodeTable, dst []uint16) error {
	var acc uint64
	var nacc uint
	pos := 0
	i := 0
	for i < len(dst) {
		if nacc < MaxCodeLen {
			pos, acc, nacc = refill(src, pos, acc, nacc)
		}
		e := t.primary[acc&(1<<tableBits-1)]
		switch e >> kindShift {
		case kindPair:
			if total := uint((e >> 40) & 0x3f); total <= nacc && i+1 < len(dst) {
				dst[i] = uint16(e)
				dst[i+1] = uint16(e >> 16)
				i += 2
				acc >>= total
				nacc -= total
				continue
			}
			fallthrough // last symbol of the chunk: emit only the first
		case kindSingle:
			l := uint((e >> 32) & 0x3f)
			if l > nacc {
				return ErrCorrupt
			}
			dst[i] = uint16(e)
			i++
			acc >>= l
			nacc -= l
		case kindSub:
			gbits := uint((e >> 32) & 0xf)
			se := t.sub[(e&0xffffff)+(acc>>tableBits)&(1<<gbits-1)]
			l := uint(se >> 16)
			if se == 0 || l > nacc {
				return ErrCorrupt
			}
			dst[i] = uint16(se)
			i++
			acc >>= l
			nacc -= l
		default:
			return ErrCorrupt
		}
	}
	return nil
}

// decodeChunkBytes is decodeChunk for byte output: it decodes exactly
// len(dst) symbols from src, each of which must be <= 255. Each probe
// first tries the byte multi-symbol table: when the run's total length
// fits the loaded bits and at least maxRun output slots remain, one 8-byte
// store emits the whole run. Otherwise it decodes a single symbol as
// decodeChunk does — sub-table codes, symbols > 255 (which fail the
// chunk), bits running out, and a chunk's last maxRun-1 symbols all take
// this path — so it accepts and rejects exactly what decodeChunk followed
// by a per-symbol <= 255 check does.
//
//cuszhi:hotpath
func decodeChunkBytes(src []byte, t *decodeTable, dst []byte) error {
	var acc uint64
	var nacc uint
	pos := 0
	i := 0
	last := len(dst) - maxRun // fast path while i <= last
	bytes := t.bytes[: 1<<tableBits : 1<<tableBits]
	info := t.info[: 1<<tableBits : 1<<tableBits]
	for i < len(dst) {
		if nacc < MaxCodeLen {
			pos, acc, nacc = refill(src, pos, acc, nacc)
		}
		v := acc & (1<<tableBits - 1)
		if in := uint(info[v]); in&0xff <= nacc && i <= last {
			binary.LittleEndian.PutUint64(dst[i:], bytes[v])
			i += int(in >> 8)
			acc >>= in & 0xff
			nacc -= in & 0xff
			continue
		}
		e := t.primary[v]
		var sym uint64
		var l uint
		switch e >> kindShift {
		case kindSingle, kindPair:
			sym, l = e&0xffff, uint(e>>32)&0x3f
		case kindSub:
			gbits := uint((e >> 32) & 0xf)
			se := t.sub[(e&0xffffff)+(acc>>tableBits)&(1<<gbits-1)]
			if se == 0 {
				return ErrCorrupt
			}
			sym, l = uint64(se&0xffff), uint(se>>16)
		default:
			return ErrCorrupt
		}
		if l > nacc || sym > 255 {
			return ErrCorrupt
		}
		dst[i] = byte(sym)
		i++
		acc >>= l
		nacc -= l
	}
	return nil
}

// ---------------------------------------------------------------------------
// Byte-stream conveniences.

// EncodeBytesCtx compresses a byte stream (alphabet 256), drawing scratch
// from ctx (nil allocates), with an optional precomputed histogram over
// the 256 byte values (see EncodeCtx). The encode kernel reads the bytes
// themselves, so the stream is never widened to uint16 symbols.
func EncodeBytesCtx(ctx *arena.Ctx, dev *gpusim.Device, p []byte, freq []int64) ([]byte, error) {
	s := scratchFor(ctx)
	if freq == nil {
		s.freq = growI64(s.freq, 256)
		freq = s.freq
		clear(freq)
		for _, b := range p {
			freq[b]++
		}
	} else if err := checkHistogram(freq, 256, len(p)); err != nil {
		return nil, err
	}
	return s.encode(dev, nil, p, 256, freq)
}

// DecodeBytesCtx reverses EncodeBytesCtx. With a non-nil ctx the returned
// slice is context scratch, valid until the next Reset.
// It shares DecodeCtx's container parser and launch but decodes straight
// into bytes through the byte multi-symbol table; a symbol above 255 is
// ErrCorrupt.
func DecodeBytesCtx(ctx *arena.Ctx, dev *gpusim.Device, data []byte) ([]byte, error) {
	s := scratchFor(ctx)
	nSyms, chunk, err := s.parseContainer(data)
	if err != nil {
		return nil, err
	}
	s.table.buildByteTable()
	out := ctx.Bytes(nSyms)
	if err := s.launchDecode(dev, data, chunk, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Size estimation.

// EstimateEncodedBytes predicts the size of the container EncodeCtx would
// produce for a stream of n symbols distributed like the histogram freq.
// The counts need not sum to n: a sample's histogram estimates the full
// stream, which is how the auto-mode estimator scores an entropy stage
// without encoding anything. The prediction uses the exact canonical code
// lengths the encoder would build from freq (so it tracks Huffman's
// one-bit-per-symbol floor, not just the Shannon entropy) plus the real
// container overhead: the RLE code-length table and the per-chunk offset
// directory. Scratch comes from ctx; nil allocates fresh.
func EstimateEncodedBytes(ctx *arena.Ctx, freq []int64, n int) (int, error) {
	s := scratchFor(ctx)
	lens, err := s.buildLengths(freq)
	if err != nil {
		return 0, err
	}
	var bits, total int64
	for sym, f := range freq {
		bits += f * int64(lens[sym])
		total += f
	}
	hdr := s.hdr[:0]
	hdr = bitio.AppendUvarint(hdr, uint64(len(freq)))
	hdr = appendLengthsRLE(hdr, lens)
	hdr = bitio.AppendUvarint(hdr, uint64(n))
	hdr = bitio.AppendUvarint(hdr, uint64(DefaultChunk))
	nChunks := (n + DefaultChunk - 1) / DefaultChunk
	hdr = bitio.AppendUvarint(hdr, uint64(nChunks))
	s.hdr = hdr
	if total == 0 || n == 0 {
		return len(hdr), nil
	}
	payload := float64(bits) / float64(total) * float64(n) / 8
	// Each chunk's offset uvarint plus its final-byte rounding.
	perChunk := int(payload)/nChunks + 1
	dirLen := 0
	for v := perChunk; ; v >>= 7 {
		dirLen++
		if v < 0x80 {
			break
		}
	}
	return len(hdr) + nChunks*dirLen + int(payload) + (nChunks+1)/2, nil
}
