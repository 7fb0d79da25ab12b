// Chunked (format v2) containers: the field is split into 3-D shards along
// the slowest dimension and each shard is compressed independently into a
// v1 container, framed with its own header and checksum. Shards compress
// and decompress concurrently (internal/pipeline), which parallelizes the
// serial stages of each codec (histogramming, tree construction) across
// shards, bounds working memory for streaming, and is the layout GPU
// compressors use for batch processing.
//
// Layout (all integers are bitio uvarints unless noted):
//
//	magic[4] "cSZh"
//	version  byte = 2
//	flags    byte = 0 (reserved)
//	ndims, dims[ndims]
//	eb       float64 LE bits (absolute bound, shared by every shard)
//	chunkPlanes          planes per shard along dims[0] (last may be short)
//	nchunks
//	nchunks × chunk frame:
//	    offset           plane index of the shard along dims[0]
//	    shardDims[ndims] shard dims (trailing dims equal the global dims)
//	    codecMode        byte: predictor<<4 | pipeline (predictor nibble is
//	                     validated against the payload; pipeline is advisory)
//	    payloadLen
//	    checksum         uint32 LE, CRC-32 (IEEE) of payload
//	    payload          a self-contained v1 container for the shard
//
// Format v3 extends v2 with per-shard value-range headers, so a streaming
// writer can honor value-range-relative error bounds without a pre-pass
// over the whole field: each shard's bound is derived from its own range
// (which is never larger than the global range, so the global relative
// bound still holds). The layout is identical to v2 except:
//
//	version  byte = 3
//	flags    byte: bit 0 set = the eb field is a RELATIVE bound and each
//	         shard payload carries its own absolute bound; other bits 0
//	every chunk frame gains, between codecMode and payloadLen:
//	    min  float32 LE   smallest value in the shard
//	    max  float32 LE   largest value in the shard
//
// v1 and v2 blobs keep decoding forever; v3 is additive (the golden tests
// lock all three layouts).
//
// Format v4 makes the container seekable: the body is v3 framing (every
// chunk frame carries its value range, whether or not the bound is
// relative) followed by a chunk-index footer, so a reader holding an
// io.ReaderAt can locate and decode any shard without scanning its
// predecessors. The footer is discoverable from the end of the file:
//
//	version  byte = 4
//	flags    byte: bit 0 as in v3; other bits 0
//	nchunks × chunk frame (v3 layout)
//	index body:
//	    nchunks
//	    nchunks × { frameOff, planeOff, planes }   (uvarints; frameOff is
//	                the byte offset of the chunk frame from the container
//	                start, planeOff/planes its plane span along dims[0])
//	crc      uint32 LE, CRC-32 (IEEE) of the index body
//	backptr  uint64 LE, byte offset of the index body from the container
//	         start (= where the frames end)
//	magic[4] "cSZi"
//
// The last IndexTailLen bytes (backptr + magic) are fixed-size, so a
// reader seeks to EOF−12, follows the backpointer, and verifies the index
// CRC. Sequential decoders instead scan the frames as in v2/v3 and then
// verify the footer agrees with what they saw.
//
// Format v5 makes chunked containers heterogeneous: each chunk may be
// compressed by a different registered codec (per-chunk adaptive mode
// dispatch), identified by the codec's 1-byte wire ID. The layout is v4
// plus that ID in two places:
//
//	version  byte = 5
//	every chunk frame gains, between codecMode and the value range:
//	    codecID  byte   registered CodecID of the chunk's assembly
//	index body entries become { frameOff, planeOff, planes, codecID }
//
// The chunk-index footer therefore records every chunk's codec without any
// payload access — readers dispatch (and report codec histograms) from the
// index alone. An unknown codec ID fails with ErrCorrupt, never a panic;
// the codecID must also agree with the frame's codecMode byte and the
// footer's entry (none of these bytes are CRC-protected, so they
// cross-check each other). v1–v4 blobs keep decoding forever.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

const (
	version2 = 2
	version3 = 3
	version4 = 4
	version5 = 5

	// flagRelEB (v3/v4) marks the header eb field as value-range-relative;
	// each shard payload then carries its own absolute bound.
	flagRelEB = 0x01
)

// indexMagic ends a v4 container; together with the 8-byte backpointer it
// forms the fixed-size tail that makes the index footer discoverable from
// the end of a file.
var indexMagic = [4]byte{'c', 'S', 'Z', 'i'}

// IndexTailLen is the fixed size of the v4 container tail: an 8-byte
// little-endian backpointer to the index body plus the index magic.
const IndexTailLen = 12

// maxChunks bounds the frame count a chunked container may declare,
// protecting the sequential frame scan from absurd headers.
const maxChunks = 1 << 20

// CodecMode packs a shard's assembly into the per-chunk header byte.
func CodecMode(opts Options) byte {
	return byte(opts.Predictor)<<4 | byte(opts.Pipeline)&0x0f
}

// ChunkedInfo describes a chunked (v2–v5) container's global header.
type ChunkedInfo struct {
	Version     int // 2, 3, 4 or 5
	Dims        []int
	EB          float64 // error bound: absolute, or relative when RelEB
	RelEB       bool    // v3 only: EB is value-range-relative
	ChunkPlanes int     // planes per shard along Dims[0]
	NumChunks   int
}

// Total returns the element count of the full field.
func (h *ChunkedInfo) Total() int {
	t := 1
	for _, d := range h.Dims {
		t *= d
	}
	return t
}

// planeSize returns the element count of one plane along dims[0].
func planeSize(dims []int) int {
	p := 1
	for _, d := range dims[1:] {
		p *= d
	}
	return p
}

// numChunks returns how many shards of chunkPlanes planes cover dims[0].
func numChunks(dims []int, chunkPlanes int) int {
	return (dims[0] + chunkPlanes - 1) / chunkPlanes
}

// ChunkInfo describes one chunk frame header.
type ChunkInfo struct {
	Offset    int   // plane index along dims[0]
	Dims      []int // shard dims
	CodecMode byte
	CodecID   CodecID // registered codec wire ID (v5 frames; 0 otherwise)
	Min, Max  float32 // shard value range (v3+ frames only)
	Checksum  uint32
}

// ---------------------------------------------------------------------------
// Encoding.

// appendUvarintWide serializes v as a LEB128 uvarint of exactly width
// bytes, padding with zero continuation groups. Every uvarint reader
// (binary.ReadUvarint, bitio.Uvarint) accepts the non-minimal form, so a
// widened field can later be rewritten in place with a larger value.
func appendUvarintWide(dst []byte, v uint64, width int) []byte {
	for i := 0; i < width-1; i++ {
		dst = append(dst, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendChunkedHeaderSized serializes a chunked global header of any v2–v5
// version; relative (v3+) marks eb as value-range-relative. nchunks 0
// means the ceiling division of dims[0] by chunkPlanes and padTo 0 means
// the minimal encoding — what every fresh container writes. Appendable
// stores pass both to rewrite their header in place as they grow: nchunks
// may exceed the ceiling division (earlier append sessions can seal short
// interior chunks), and the dims[0]/nchunks uvarints are widened —
// non-minimal LEB128, which every uvarint reader accepts — until the
// header is exactly padTo bytes, so the frames behind it never move. It
// fails when the minimal header would not fit padTo.
func AppendChunkedHeaderSized(dst []byte, ver int, dims []int, eb float64, relative bool, chunkPlanes, nchunks, padTo int) ([]byte, error) {
	if ver < version2 || ver > version5 {
		return nil, fmt.Errorf("core: version %d is not a chunked format", ver)
	}
	var flags byte
	if relative {
		if ver == version2 {
			return nil, fmt.Errorf("core: v2 containers cannot carry a relative bound")
		}
		flags = flagRelEB
	}
	if eb <= 0 || math.IsInf(eb, 0) || math.IsNaN(eb) {
		return nil, fmt.Errorf("core: invalid error bound %v", eb)
	}
	if len(dims) == 0 || len(dims) > 8 {
		return nil, fmt.Errorf("core: invalid dims %v", dims)
	}
	for _, d := range dims {
		if d <= 0 || d > 1<<31 {
			return nil, fmt.Errorf("core: invalid dims %v", dims)
		}
	}
	if chunkPlanes <= 0 {
		return nil, fmt.Errorf("core: chunk planes %d must be positive", chunkPlanes)
	}
	if nchunks == 0 {
		nchunks = numChunks(dims, chunkPlanes)
	}
	if nchunks < numChunks(dims, chunkPlanes) || nchunks > dims[0] || nchunks > maxChunks {
		return nil, fmt.Errorf("core: %d chunks is invalid for %d planes of %d", nchunks, dims[0], chunkPlanes)
	}
	// The two growing fields, dims[0] and nchunks, absorb the padding.
	w0, wn := bitio.UvarintLen(uint64(dims[0])), bitio.UvarintLen(uint64(nchunks))
	if padTo > 0 {
		minimal := len(magic) + 2 + bitio.UvarintLen(uint64(len(dims))) + w0
		for _, d := range dims[1:] {
			minimal += bitio.UvarintLen(uint64(d))
		}
		minimal += 8 + bitio.UvarintLen(uint64(chunkPlanes)) + wn
		pad := padTo - minimal
		if pad < 0 || w0+pad > 2*10 {
			return nil, fmt.Errorf("core: header needs %d bytes, cannot pad to %d", minimal, padTo)
		}
		if grow := min(pad, 10-w0); grow > 0 {
			w0 += grow
			pad -= grow
		}
		wn += pad
		if wn > 10 {
			return nil, fmt.Errorf("core: header cannot pad to %d", padTo)
		}
	}
	dst = append(dst, magic[:]...)
	dst = append(dst, byte(ver), flags)
	dst = bitio.AppendUvarint(dst, uint64(len(dims)))
	dst = appendUvarintWide(dst, uint64(dims[0]), w0)
	for _, d := range dims[1:] {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	dst = bitio.AppendUint64(dst, math.Float64bits(eb))
	dst = bitio.AppendUvarint(dst, uint64(chunkPlanes))
	return appendUvarintWide(dst, uint64(nchunks), wn), nil
}

// appendChunkFrame is the one chunk-frame encoder, for any v2–v5 version:
// plane offset, shard dims and the packed codec-mode byte, then (v5) the
// codec wire ID, (v3+) the shard's value range, and the payload length,
// CRC-32 and payload itself.
func appendChunkFrame(dst []byte, ver int, mode byte, id CodecID, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(offset))
	for _, d := range shardDims {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	dst = append(dst, mode)
	if ver >= version5 {
		dst = append(dst, byte(id))
	}
	if ver >= version3 {
		dst = bitio.AppendUint32(dst, math.Float32bits(minV))
		dst = bitio.AppendUint32(dst, math.Float32bits(maxV))
	}
	dst = bitio.AppendUvarint(dst, uint64(len(payload)))
	dst = bitio.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// AppendChunkFrameV3 serializes one v3/v4 chunk frame for an assembly.
func AppendChunkFrameV3(dst []byte, opts Options, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	return appendChunkFrame(dst, version3, CodecMode(opts), codecInvalid, offset, shardDims, minV, maxV, payload)
}

// AppendChunkFrameV5 serializes one v5 chunk frame for a registered codec.
func AppendChunkFrameV5(dst []byte, cd Codec, offset int, shardDims []int, minV, maxV float32, payload []byte) []byte {
	return appendChunkFrame(dst, version5, frameMode(cd), cd.ID(), offset, shardDims, minV, maxV, payload)
}

// frameMode returns the codec-mode byte cd's frames carry: the packed
// predictor/pipeline byte of an assembly (cached by the registry for
// registered ones), or 0 for a codec without Options — advisory there, so
// v5 frame validation rests on the codec ID and its footer cross-check.
func frameMode(cd Codec) byte {
	if mode, ok := codecFrameMode(cd.ID()); ok {
		return mode
	}
	if oc, ok := cd.(optioned); ok {
		return CodecMode(oc.Options())
	}
	return 0
}

// IndexEntry locates one chunk inside a v4/v5 container: where its frame
// starts, which planes it reconstructs and (v5) which codec wrote it.
type IndexEntry struct {
	FrameOff int64   // byte offset of the chunk frame from the container start
	PlaneOff int     // first plane the chunk covers along Dims[0]
	Planes   int     // planes the chunk covers
	Codec    CodecID // the chunk's codec wire ID (v5 indexes; 0 otherwise)
}

// AppendChunkIndexFooter serializes the chunk-index footer of a version-ver
// (v4 or v5) container; v5 entries also record each chunk's codec wire ID.
// footerOff is the byte offset at which the footer itself begins (the
// container length so far — where the last chunk frame ended); it becomes
// the backpointer stored in the fixed-size tail.
func AppendChunkIndexFooter(dst []byte, ver int, footerOff int64, entries []IndexEntry) []byte {
	body := bitio.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		body = bitio.AppendUvarint(body, uint64(e.FrameOff))
		body = bitio.AppendUvarint(body, uint64(e.PlaneOff))
		body = bitio.AppendUvarint(body, uint64(e.Planes))
		if ver >= version5 {
			body = bitio.AppendUvarint(body, uint64(e.Codec))
		}
	}
	dst = append(dst, body...)
	dst = bitio.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = bitio.AppendUint64(dst, uint64(footerOff))
	return append(dst, indexMagic[:]...)
}

// ParseChunkIndexTail reads the fixed-size v4 tail (the last IndexTailLen
// bytes of a container), returning the backpointer to the index body.
func ParseChunkIndexTail(tail []byte) (footerOff int64, err error) {
	if len(tail) != IndexTailLen || !bytes.Equal(tail[8:], indexMagic[:]) {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(tail[:8])
	if v > 1<<62 {
		return 0, ErrCorrupt
	}
	return int64(v), nil
}

// ParseChunkIndex decodes and validates a v4 index region — the bytes from
// the backpointer up to (not including) the fixed tail, i.e. the index
// body plus its CRC. The entries must agree with the global header: one
// entry per chunk, frame offsets strictly increasing and below footerOff,
// plane spans tiling [0, Dims[0]) contiguously with no chunk thicker than
// ChunkPlanes.
func ParseChunkIndex(region []byte, h *ChunkedInfo, footerOff int64) ([]IndexEntry, error) {
	if len(region) < 5 {
		return nil, ErrCorrupt
	}
	body := region[:len(region)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(region[len(region)-4:]) {
		return nil, fmt.Errorf("core: chunk index checksum mismatch: %w", ErrCorrupt)
	}
	off := 0
	readUv := func() (uint64, bool) {
		v, n := bitio.Uvarint(body[off:])
		if n == 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	nc, ok := readUv()
	if !ok || int(nc) != h.NumChunks {
		return nil, ErrCorrupt
	}
	entries := make([]IndexEntry, h.NumChunks)
	nextPlane := 0
	prevOff := int64(-1)
	for i := range entries {
		fo, ok1 := readUv()
		po, ok2 := readUv()
		pl, ok3 := readUv()
		if !ok1 || !ok2 || !ok3 {
			return nil, ErrCorrupt
		}
		e := IndexEntry{FrameOff: int64(fo), PlaneOff: int(po), Planes: int(pl)}
		if h.Version >= version5 {
			cv, ok := readUv()
			if !ok || cv == 0 || cv > 255 {
				return nil, ErrCorrupt
			}
			if _, ok := CodecByID(CodecID(cv)); !ok {
				return nil, fmt.Errorf("core: chunk index entry %d: unknown codec id %d: %w", i, cv, ErrCorrupt)
			}
			e.Codec = CodecID(cv)
		}
		if fo > 1<<62 || e.FrameOff <= prevOff || e.FrameOff >= footerOff {
			return nil, ErrCorrupt
		}
		if e.PlaneOff != nextPlane || e.Planes <= 0 || e.Planes > h.ChunkPlanes ||
			e.PlaneOff+e.Planes > h.Dims[0] {
			return nil, ErrCorrupt
		}
		prevOff = e.FrameOff
		nextPlane += e.Planes
		entries[i] = e
	}
	if nextPlane != h.Dims[0] || off != len(body) {
		return nil, ErrCorrupt
	}
	return entries, nil
}

// ShardRange scans one slab of values for its min/max — the v3 per-shard
// range header. NaNs are skipped, as the whole-file range pre-pass this
// replaces did; ok is false when the shard is empty or all-NaN.
func ShardRange(vs []float32) (minV, maxV float32, ok bool) {
	i := 0
	for i < len(vs) && vs[i] != vs[i] { // skip leading NaNs
		i++
	}
	if i == len(vs) {
		return 0, 0, false
	}
	minV, maxV = vs[i], vs[i]
	for _, v := range vs[i+1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV, true
}

// EncodeSpec says how every shard of a chunked container is encoded: the
// container version, the bound, and either one fixed codec or per-shard
// selection. ResolveEncodeSpec builds it from a mode name.
type EncodeSpec struct {
	Version  int             // container version, 2–5
	EB       float64         // absolute bound, or value-range-relative when Relative
	Relative bool            // resolve each shard's bound from its own range (v3+)
	Codec    Codec           // the fixed codec; nil picks one per shard (v5 only)
	Policy   SelectionPolicy // ranks the candidates when Codec is nil (nil = default)
}

// autoMode is the mode name of per-shard codec selection.
const autoMode = "auto"

// ResolveEncodeSpec resolves a mode name — "auto" or a registered codec
// name — and a selection policy spelling ("" = default; auto mode only)
// into the spec of a version-ver container. ver 0 picks the newest layout
// the mode needs: v4 for an assembly, v5 for a backend codec or auto mode,
// whose frames carry codec IDs. The caller fills in the bound.
func ResolveEncodeSpec(mode, policy string, ver int) (EncodeSpec, error) {
	var s EncodeSpec
	if mode == autoMode {
		pol, err := PolicyByName(policy)
		if err != nil {
			return s, err
		}
		s.Policy = pol
	} else {
		if policy != "" {
			return s, fmt.Errorf("core: selection policy %q needs auto mode; mode is %q", policy, mode)
		}
		cd, ok := CodecByName(mode)
		if !ok {
			return s, fmt.Errorf("core: unknown mode %q", mode)
		}
		s.Codec = cd
	}
	s.Version = ver
	if ver == 0 {
		s.Version = version4
		if s.needsCodecIDs() {
			s.Version = version5
		}
	}
	return s, s.validate()
}

// needsCodecIDs reports whether the spec's chunks can only be framed with
// codec IDs (format v5): per-shard selection, or a codec without Options.
func (s *EncodeSpec) needsCodecIDs() bool {
	_, assembly := s.Codec.(optioned)
	return !assembly
}

func (s *EncodeSpec) validate() error {
	if s.Version < version2 || s.Version > version5 {
		return fmt.Errorf("core: version %d is not a chunked format", s.Version)
	}
	if s.Version < version5 && s.needsCodecIDs() {
		mode := autoMode
		if s.Codec != nil {
			mode = s.Codec.Name()
		}
		return fmt.Errorf("core: mode %q writes per-chunk codec IDs to the v5 index footer; format v%d cannot carry them", mode, s.Version)
	}
	if s.Version >= version5 && s.Codec != nil {
		if _, ok := CodecByID(s.Codec.ID()); !ok {
			return fmt.Errorf("core: codec %q has no wire ID; format v5 needs a registered codec", s.Codec.Name())
		}
	}
	if s.Relative && s.Version < version3 {
		return fmt.Errorf("core: v2 containers cannot carry a relative bound")
	}
	return nil
}

// ShardPick reports one shard's auto-mode selection: which codec the
// estimator picked, what size it predicted, and what the winner actually
// produced — the estimator-vs-actual observability record the streaming
// writer aggregates.
type ShardPick struct {
	Codec       string // winner's mode name
	EstBytes    int    // estimator's predicted payload size
	ActualBytes int    // the winner's real payload size
	EstRatio    float64
	ActualRatio float64
}

// EncodeShard is the one per-shard worker body behind every chunked
// writer (CompressChunked and stream.Writer). shard holds shardDims[0]
// planes starting at plane offset. It resolves the shard's bound (relative
// bounds from the shard's own range), picks the codec (spec's fixed one,
// or per shard under spec.Policy), compresses through ctx, and frames the
// payload for spec.Version. It returns the frame, its index entry (the
// caller sets FrameOff, knowing where the frame lands) and, when the codec
// was picked per shard, the pick — the zero ShardPick otherwise.
func EncodeShard(ctx *arena.Ctx, dev *gpusim.Device, shard []float32, shardDims []int, offset int, spec EncodeSpec) ([]byte, IndexEntry, ShardPick, error) {
	var minV, maxV float32
	if spec.Version >= version3 {
		minV, maxV, _ = ShardRange(shard) // all-NaN: zero range below
	}
	eb := spec.EB
	if spec.Relative {
		if rng := float64(maxV) - float64(minV); rng > 0 {
			eb *= rng
		} else {
			// Constant shard: the field's true range is unknown here, so any
			// range-derived fallback could exceed the global bound. Instead
			// pick a bound below half a float32 ulp of the value — mag*1e-8
			// for normal magnitudes, floored at 1e-46 (< half the smallest
			// denormal spacing) — so the reconstruction is bit-exact and
			// satisfies every possible global bound.
			eb = max(math.Abs(float64(minV))*1e-8, 1e-46)
		}
	}
	cd, pick := spec.Codec, ShardPick{}
	if cd == nil {
		var est CandidateEstimate
		var err error
		if cd, est, err = SelectShardCodecPolicy(ctx, dev, shard, shardDims, eb, spec.Policy); err != nil {
			return nil, IndexEntry{}, pick, fmt.Errorf("core: shard at plane %d: %w", offset, err)
		}
		pick = ShardPick{Codec: cd.Name(), EstBytes: est.Bytes, EstRatio: est.Ratio}
	}
	payload, err := cd.Compress(ctx, dev, shard, shardDims, eb)
	if err != nil {
		return nil, IndexEntry{}, ShardPick{}, fmt.Errorf("core: shard at plane %d: %w", offset, err)
	}
	if pick.Codec != "" {
		pick.ActualBytes = len(payload)
		pick.ActualRatio = float64(4*len(shard)) / float64(len(payload))
	}
	entry := IndexEntry{PlaneOff: offset, Planes: shardDims[0]}
	if spec.Version >= version5 {
		entry.Codec = cd.ID()
	}
	frame := appendChunkFrame(nil, spec.Version, frameMode(cd), entry.Codec, offset, shardDims, minV, maxV, payload)
	return frame, entry, pick, nil
}

// checkDims validates a field's dims against its value count.
func checkDims(data []float32, dims []int) error {
	if len(dims) == 0 || len(dims) > 8 {
		return fmt.Errorf("core: invalid dims %v", dims)
	}
	total := 1
	for _, d := range dims {
		if d <= 0 || d > len(data) {
			return fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
		}
		total *= d
	}
	if total != len(data) {
		return fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
	}
	return nil
}

// CompressChunked encodes data into a chunked container of spec.Version:
// shards of chunkPlanes planes (the last may be short) run through
// EncodeShard concurrently on dev's worker pool, each worker reusing its
// own codec context, and the frames are assembled in order behind the
// global header and — v4/v5 — ahead of the chunk-index footer. The bytes
// are exactly what stream.Writer writes for the same spec.
func CompressChunked(dev *gpusim.Device, data []float32, dims []int, chunkPlanes int, spec EncodeSpec) ([]byte, error) {
	if err := checkDims(data, dims); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	out, err := AppendChunkedHeaderSized(nil, spec.Version, dims, spec.EB, spec.Relative, chunkPlanes, 0, 0)
	if err != nil {
		return nil, err
	}
	n := numChunks(dims, chunkPlanes)
	ps := planeSize(dims)
	ctxs := workerCtxs(dev.Workers(), n)
	defer releaseCtxs(ctxs)
	type encoded struct {
		frame []byte
		entry IndexEntry
	}
	shards, err := pipeline.MapWorker(dev.Workers(), n, func(w, i int) (encoded, error) {
		ctx := ctxs[w]
		ctx.Reset()
		offset := i * chunkPlanes
		planes := min(chunkPlanes, dims[0]-offset)
		shardDims := append([]int{planes}, dims[1:]...)
		frame, entry, _, err := EncodeShard(ctx, dev, data[offset*ps:(offset+planes)*ps], shardDims, offset, spec)
		return encoded{frame, entry}, err
	})
	if err != nil {
		return nil, err
	}
	entries := make([]IndexEntry, n)
	for i, s := range shards {
		entries[i] = s.entry
		entries[i].FrameOff = int64(len(out))
		out = append(out, s.frame...)
	}
	if spec.Version < version4 {
		return out, nil
	}
	return AppendChunkIndexFooter(out, spec.Version, int64(len(out)), entries), nil
}

// workerCtxs draws one codec context per worker slot from the arena pool.
func workerCtxs(workers, jobs int) []*arena.Ctx {
	if workers <= 0 || workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	ctxs := make([]*arena.Ctx, workers)
	for i := range ctxs {
		ctxs[i] = arena.Get()
	}
	return ctxs
}

func releaseCtxs(ctxs []*arena.Ctx) {
	for _, c := range ctxs {
		arena.Put(c)
	}
}

// ---------------------------------------------------------------------------
// Decoding.

// oneByteReader adapts an io.Reader to io.ByteReader without buffering
// ahead, so uvarint reads interleave safely with io.ReadFull.
type oneByteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

func readUvarint(r io.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(&oneByteReader{r: r})
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, ErrCorrupt
	}
	return v, err
}

// SniffVersion reports the container format version from a prefix of at
// least 5 bytes, or ok=false when the prefix is not a container at all.
func SniffVersion(prefix []byte) (int, bool) {
	if len(prefix) < 5 || !bytes.Equal(prefix[:4], magic[:]) {
		return 0, false
	}
	return int(prefix[4]), true
}

// ReadChunkedHeader parses a chunked (v2–v5) global header from r
// (including the magic and version bytes).
func ReadChunkedHeader(r io.Reader) (*ChunkedInfo, error) {
	var pre [6]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, ErrCorrupt
	}
	if !bytes.Equal(pre[:4], magic[:]) {
		return nil, ErrCorrupt
	}
	if pre[4] < version2 || pre[4] > version5 {
		return nil, fmt.Errorf("core: version %d is not a chunked container: %w", pre[4], ErrCorrupt)
	}
	return readChunkedHeaderBody(r, pre[4], pre[5])
}

// readChunkedHeaderBody parses the chunked header after magic/version/flags.
func readChunkedHeaderBody(r io.Reader, ver, flags byte) (*ChunkedInfo, error) {
	if ver == version2 && flags != 0 {
		return nil, ErrCorrupt // v2 reserves the flags byte as zero
	}
	if ver >= version3 && flags&^byte(flagRelEB) != 0 {
		return nil, ErrCorrupt
	}
	nd, err := readUvarint(r)
	if err != nil || nd == 0 || nd > 8 {
		return nil, ErrCorrupt
	}
	h := &ChunkedInfo{
		Version: int(ver),
		RelEB:   ver >= version3 && flags&flagRelEB != 0,
		Dims:    make([]int, nd),
	}
	total := 1
	for i := range h.Dims {
		v, err := readUvarint(r)
		if err != nil || v == 0 || v > 1<<31 {
			return nil, ErrCorrupt
		}
		h.Dims[i] = int(v)
		total *= int(v)
		if total <= 0 || total > 1<<33 {
			return nil, ErrCorrupt
		}
	}
	var ebb [8]byte
	if _, err := io.ReadFull(r, ebb[:]); err != nil {
		return nil, ErrCorrupt
	}
	h.EB = math.Float64frombits(binary.LittleEndian.Uint64(ebb[:]))
	if !(h.EB > 0) || math.IsInf(h.EB, 0) {
		return nil, ErrCorrupt
	}
	cp, err := readUvarint(r)
	if err != nil || cp == 0 || cp > 1<<31 {
		return nil, ErrCorrupt
	}
	h.ChunkPlanes = int(cp)
	nc, err := readUvarint(r)
	if err != nil || nc == 0 || nc > maxChunks {
		return nil, ErrCorrupt
	}
	h.NumChunks = int(nc)
	// Appendable stores reseal after every session, and a session may end
	// on a short shard, so a container can legally hold MORE chunks than
	// the ceiling division implies (short interior chunks) — but never
	// fewer, and never more than one per plane. Every decode path still
	// requires the chunks to tile [0, Dims[0]) contiguously with no chunk
	// thicker than ChunkPlanes.
	if h.NumChunks < numChunks(h.Dims, h.ChunkPlanes) || h.NumChunks > h.Dims[0] {
		return nil, ErrCorrupt
	}
	return h, nil
}

// validateChunkFrame applies the frame-header rules ScanFrameHeader, the
// one frame-header parser, checks once the header's fields are in hand.
func validateChunkFrame(h *ChunkedInfo, c *ChunkInfo, plen uint64) error {
	if c.Offset >= h.Dims[0] {
		return ErrCorrupt
	}
	if h.Version >= version3 {
		// The v3 range header must be an ordered, finite pair.
		if math.IsNaN(float64(c.Min)) || math.IsNaN(float64(c.Max)) || c.Min > c.Max {
			return ErrCorrupt
		}
	}
	if h.Version >= version5 {
		// The codec ID must resolve in the registry, and (neither byte is
		// CRC-protected) agree with the frame's packed codec-mode byte.
		cd, ok := CodecByID(c.CodecID)
		if !ok {
			return fmt.Errorf("core: chunk at plane %d: unknown codec id %d: %w", c.Offset, c.CodecID, ErrCorrupt)
		}
		if mode, ok := codecFrameMode(cd.ID()); ok && mode != c.CodecMode {
			return fmt.Errorf("core: chunk at plane %d: codec %s disagrees with codec mode %#x: %w",
				c.Offset, CodecLabel(c.CodecID), c.CodecMode, ErrCorrupt)
		}
	}
	elems := 1
	for i, d := range c.Dims {
		if d <= 0 || d > 1<<31 {
			return ErrCorrupt
		}
		elems *= d
		if elems <= 0 || elems > 1<<33 {
			return ErrCorrupt
		}
		if i > 0 && d != h.Dims[i] {
			return ErrCorrupt
		}
	}
	if c.Dims[0] > h.ChunkPlanes || c.Offset+c.Dims[0] > h.Dims[0] {
		return ErrCorrupt
	}
	// A v1 shard container is never drastically larger than the raw shard;
	// the caps keep hostile headers from forcing huge allocations. The
	// 1<<31 payload ceiling is part of the format: both decode paths must
	// apply it identically.
	if plen > uint64(16*elems)+(1<<20) || plen > 1<<31 {
		return ErrCorrupt
	}
	return nil
}

// readPayload reads exactly n bytes from r, growing the buffer
// incrementally so a hostile header cannot force a multi-GB allocation
// before any real bytes have arrived.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const step = 1 << 20
	first := n
	if first > step {
		first = step
	}
	buf := make([]byte, 0, first)
	for remaining := n; remaining > 0; {
		c := remaining
		if c > step {
			c = step
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, ErrCorrupt
		}
		remaining -= c
	}
	return buf, nil
}

// ReadChunkFrame reads one chunk frame from r, consuming exactly its
// bytes, and returns its header and CRC-checked payload. The global header
// h supplies dimensionality and bounds; the frame is validated against it.
// The header is grown a byte at a time until ScanFrameHeader stops
// reporting a short buffer, so r is never read past the frame.
func ReadChunkFrame(r io.Reader, h *ChunkedInfo) (*ChunkInfo, []byte, error) {
	var hdr [MaxFrameHeaderLen]byte
	for n := 1; n <= len(hdr); n++ {
		if _, err := io.ReadFull(r, hdr[n-1:n]); err != nil {
			return nil, nil, ErrCorrupt
		}
		c, _, plen, err := ScanFrameHeader(hdr[:n], h)
		if err == errShortFrame {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		payload, err := readPayload(r, uint64(plen))
		if err != nil {
			return nil, nil, err
		}
		if err := checkCRC(c, crc32.ChecksumIEEE(payload)); err != nil {
			return nil, nil, err
		}
		return c, payload, nil
	}
	return nil, nil, ErrCorrupt
}

// verifyV1ShardPayload cross-checks a frame header against the v1
// container payload it carries: the payload must self-describe as v1 and
// its predictor byte must match the frame's codec-mode nibble (the frame
// header is outside the CRC, so the two must corroborate each other).
func verifyV1ShardPayload(c *ChunkInfo, payload []byte) error {
	if len(payload) < 6 || payload[4] != version {
		return ErrCorrupt
	}
	if payload[5] != c.CodecMode>>4 {
		return fmt.Errorf("core: chunk at plane %d: codec mode %#x disagrees with payload predictor %d: %w",
			c.Offset, c.CodecMode, payload[5], ErrCorrupt)
	}
	return nil
}

// DecompressShardCtx decodes one chunk's payload and validates it against
// the frame header, drawing scratch from ctx: it is
// DecompressShardPlanesCtx over every plane of the chunk.
func DecompressShardCtx(ctx *arena.Ctx, dev *gpusim.Device, c *ChunkInfo, payload []byte) ([]float32, error) {
	return DecompressShardPlanesCtx(ctx, dev, c, payload, 0, c.Dims[0])
}

// DecompressShardPlanesCtx decodes planes [lo, hi) of one chunk (counted
// from the chunk's first plane) and validates the payload against the
// frame header. With a non-nil ctx the returned planes are context
// scratch, valid until ctx.Reset. v5 chunks dispatch through the codec
// registry by their wire ID; an unknown ID fails with ErrCorrupt. The
// v1-payload cross-checks apply to v2–v4 chunks and to assembly codecs
// (which wrap v1 containers, so their interpolation payloads reconstruct
// only the blocks owning the planes); a registered codec without Options
// owns its own payload format, only its Decompress judges the bytes, and
// its whole-shard result is sliced.
func DecompressShardPlanesCtx(ctx *arena.Ctx, dev *gpusim.Device, c *ChunkInfo, payload []byte, lo, hi int) ([]float32, error) {
	if lo < 0 || hi > c.Dims[0] || lo >= hi {
		// Callers derive the range from a chunk index, which the frame
		// then contradicts.
		return nil, fmt.Errorf("core: chunk at plane %d has no planes %d:%d of its %d: %w", c.Offset, lo, hi, c.Dims[0], ErrCorrupt)
	}
	var cd Codec // nil for v2–v4 chunks, which carry no codec ID
	if c.CodecID != codecInvalid {
		var ok bool
		if cd, ok = CodecByID(c.CodecID); !ok {
			return nil, fmt.Errorf("core: chunk at plane %d: unknown codec id %d: %w", c.Offset, c.CodecID, ErrCorrupt)
		}
	}
	var recon []float32
	var rdims []int
	var err error
	_, isAssembly := cd.(optioned)
	if cd == nil || isAssembly {
		if err := verifyV1ShardPayload(c, payload); err != nil {
			return nil, err
		}
		// Every assembly codec's Decompress is DecompressCtx, the whole-
		// field form of decompressPlanes.
		recon, rdims, err = decompressPlanes(ctx, dev, payload, lo, hi)
	} else {
		recon, rdims, err = cd.Decompress(ctx, dev, payload)
		if ps := planeSize(c.Dims); err == nil && len(recon) == c.Dims[0]*ps {
			recon = recon[lo*ps : hi*ps]
		}
	}
	if err != nil {
		return nil, err
	}
	if !slices.Equal(rdims, c.Dims) || len(recon) != (hi-lo)*planeSize(c.Dims) {
		return nil, ErrCorrupt
	}
	return recon, nil
}

// errShortFrame reports a buffer that ends inside a frame header. A
// reader that fetches header bytes incrementally takes it as "fetch more";
// to every other caller it is corruption.
var errShortFrame = fmt.Errorf("core: frame header runs past the input: %w", ErrCorrupt)

// ScanFrameHeader is the one frame-header parser. It parses the chunk
// frame header at the front of buf, which need only hold the header bytes
// — not the payload — and validates it against the global header h. It
// returns the frame info (checksum included), the offset within buf at
// which the payload begins, and the payload length. A buf that ends inside
// the header fails with errShortFrame, any other invalid header with
// validateChunkFrame's error or ErrCorrupt. A failed parse allocates no
// ChunkInfo, so a reader can retry it cheaply on a growing buffer.
func ScanFrameHeader(buf []byte, h *ChunkedInfo) (*ChunkInfo, int, int, error) {
	if len(h.Dims) > 8 {
		return nil, 0, 0, ErrCorrupt
	}
	off := 0
	readUv := func() (uint64, error) {
		v, n := bitio.Uvarint(buf[off:])
		if n == 0 && len(buf)-off < 10 {
			return 0, errShortFrame
		}
		if n == 0 || v > 1<<31 {
			return 0, ErrCorrupt
		}
		off += n
		return v, nil
	}
	o, err := readUv()
	if err != nil {
		return nil, 0, 0, err
	}
	var dims [8]int
	c := ChunkInfo{Offset: int(o), Dims: dims[:len(h.Dims)]}
	for i := range c.Dims {
		v, err := readUv()
		if err != nil {
			return nil, 0, 0, err
		}
		c.Dims[i] = int(v)
	}
	if off >= len(buf) {
		return nil, 0, 0, errShortFrame
	}
	c.CodecMode = buf[off]
	off++
	if h.Version >= version5 {
		if off >= len(buf) {
			return nil, 0, 0, errShortFrame
		}
		c.CodecID = CodecID(buf[off])
		off++
	}
	if h.Version >= version3 {
		if off+8 > len(buf) {
			return nil, 0, 0, errShortFrame
		}
		c.Min = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		c.Max = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
	}
	plen, err := readUv()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := validateChunkFrame(h, &c, plen); err != nil {
		return nil, 0, 0, err
	}
	if off+4 > len(buf) {
		return nil, 0, 0, errShortFrame
	}
	// Built field by field, not copied from c: a copy would let the stack
	// dims array escape along with c.Dims.
	out := &ChunkInfo{Offset: c.Offset, Dims: append([]int(nil), c.Dims...), CodecMode: c.CodecMode,
		CodecID: c.CodecID, Min: c.Min, Max: c.Max, Checksum: binary.LittleEndian.Uint32(buf[off:])}
	return out, off + 4, int(plen), nil
}

// ---------------------------------------------------------------------------
// Inspection.

// Info summarizes a container without decoding its payloads.
type Info struct {
	Version     int
	Dims        []int
	EB          float64
	RelEB       bool // v3+: EB is value-range-relative
	NumChunks   int  // 0 for v1 containers
	ChunkPlanes int  // 0 for v1 containers
	HasIndex    bool // v4/v5: a chunk-index footer makes the container seekable
	// ChunkCodecs counts chunks per codec name (v5 containers only),
	// computed from the chunk-index footer without touching any payload.
	ChunkCodecs map[string]int
	// ChunkCRs holds each chunk's actual compression ratio (raw plane
	// bytes over on-disk frame bytes), in plane order, computed for
	// indexed (v4/v5) containers from the footer's frame offsets alone.
	// Compared against an auto-mode writer's selection report
	// (stream.Writer.AutoSelections) it closes the estimator-vs-actual
	// observability loop without any container layout change.
	ChunkCRs []float64
}

// Inspect reads a container's headers (any format version).
func Inspect(blob []byte) (*Info, error) {
	if ver, _ := SniffVersion(blob); ver < version2 || ver > version5 {
		h, err := parseV1Header(nil, blob)
		if err != nil {
			return nil, err
		}
		return &Info{Version: version, Dims: h.dims, EB: h.eb}, nil
	}
	src := bytes.NewReader(blob)
	_, h, headerLen, err := OpenChunked(src, int64(len(blob)))
	if err != nil {
		return nil, err
	}
	info := &Info{Version: h.Version, Dims: h.Dims, EB: h.EB, RelEB: h.RelEB,
		NumChunks: h.NumChunks, ChunkPlanes: h.ChunkPlanes}
	if h.Version < version4 {
		return info, nil
	}
	// Headers-only read of the seekable footer. It alone yields per-chunk
	// observability: frame extents against raw plane bytes give each
	// chunk's actual compression ratio, and for v5 the recorded codec IDs
	// give the codec histogram — no payload is touched for either.
	ix, err := LoadIndex(src, int64(len(blob)), h, headerLen)
	if err != nil {
		return nil, err
	}
	info.HasIndex = true
	ps := planeSize(h.Dims)
	info.ChunkCRs = make([]float64, len(ix.Entries))
	for i, e := range ix.Entries {
		info.ChunkCRs[i] = float64(4*e.Planes*ps) / float64(ix.End(i)-e.FrameOff)
	}
	if h.Version >= version5 {
		info.ChunkCodecs = make(map[string]int)
		for _, e := range ix.Entries {
			cd, _ := CodecByID(e.Codec) // registered: ParseChunkIndex validated it
			info.ChunkCodecs[cd.Name()]++
		}
	}
	return info, nil
}
