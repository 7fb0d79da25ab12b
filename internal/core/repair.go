// Crash recovery for chunked containers. A writer that dies mid-stream
// leaves a file with a trailing partial frame and a torn (or absent)
// chunk-index footer. ScanRecovery walks such a file from the front,
// verifying every frame's CRC, and reports the longest valid prefix — the
// index entries, the byte offset of the last CRC-valid frame boundary,
// and whether a footer seals the frames. Repair tooling truncates at that
// boundary; appendable writers resume from it.
//
// The scan deliberately does not trust the global header's plane count:
// after a crash the header is stale (it reflects the last sealed state,
// or the dims the writer declared up front), so frames may cover fewer
// planes than it claims — or more, when the writer appended past the last
// seal before dying. Only dims[1:] (the plane shape), the error bound and
// the chunk thickness are taken from the header; the plane count is
// whatever the CRC-valid frames prove.
package core

import (
	"io"
)

// maxFrameHeaderBytes bounds a chunk frame header (offset + up to 8 dim
// uvarints + codec-mode byte + codec-ID byte (v5) + 8-byte range +
// payload-length uvarint + CRC), so the recovery scan can fetch one
// header with a single small read.
const maxFrameHeaderBytes = 96

// FooterState classifies what follows the last CRC-valid frame of a
// scanned container.
type FooterState int

const (
	// FooterMissing: the frames end at EOF — the writer died before (or
	// while) writing the footer, leaving nothing behind the frames.
	FooterMissing FooterState = iota
	// FooterTorn: trailing bytes follow the frames but do not form a
	// valid footer that matches them — a partial frame, a half-written
	// footer, or garbage. Repair drops them.
	FooterTorn
	// FooterValid: a chunk-index footer seals exactly the scanned frames.
	FooterValid
)

// RecoveryInfo reports what ScanRecovery proved about a container.
type RecoveryInfo struct {
	Header    *ChunkedInfo // global header as stored (Dims[0] may be stale)
	HeaderLen int64        // byte length of the global header
	Entries   []IndexEntry // the CRC-valid prefix frames, in order
	Modes     []byte       // each frame's packed codec-mode byte
	FramesEnd int64        // last CRC-valid frame boundary
	Planes    int          // contiguous planes the valid frames cover
	Footer    FooterState
	Size      int64 // the scanned file size
}

// TailBytes returns how many bytes past the last CRC-valid frame boundary
// a repair would drop (0 when a valid footer seals the frames — the
// footer is rewritten, not dropped).
func (r *RecoveryInfo) TailBytes() int64 {
	if r.Footer == FooterValid {
		return 0
	}
	return r.Size - r.FramesEnd
}

// Sealed reports whether the container needs no repair: the global header
// agrees with what the scan proved, and the frames are sealed — by a valid
// footer (v4/v5), or by simply ending at EOF (v2/v3, which have none).
func (r *RecoveryInfo) Sealed() bool {
	if r.Header.Dims[0] != r.Planes || r.Header.NumChunks != len(r.Entries) {
		return false
	}
	if r.Header.Version < version4 {
		return r.Size == r.FramesEnd
	}
	return r.Footer == FooterValid
}

// byteCounter counts the bytes an io.Reader delivers, so the scan learns
// the variable-length global header's size.
type byteCounter struct {
	r io.Reader
	n int64
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ScanRecovery walks the chunked (v2–v5) container held by src (size
// bytes long) from the front, verifying every frame header and payload
// CRC, and reports the longest contiguous valid prefix. It never writes;
// repair and append tooling act on its report. Corrupt or non-chunked
// prefixes fail with ErrCorrupt; a well-formed header with zero valid
// frames is a successful scan of an empty prefix.
func ScanRecovery(src io.ReaderAt, size int64) (*RecoveryInfo, error) {
	cr := &byteCounter{r: io.NewSectionReader(src, 0, size)}
	h, err := ReadChunkedHeader(cr)
	if err != nil {
		return nil, err
	}
	rec := &RecoveryInfo{Header: h, HeaderLen: cr.n, FramesEnd: cr.n, Size: size}
	// The header's plane count is stale after a crash: scan against a
	// relaxed copy so frames appended past the last seal still validate.
	// dims[1:], the chunk thickness and the frame layout stay binding.
	hScan := *h
	hScan.Dims = append([]int(nil), h.Dims...)
	hScan.Dims[0] = 1 << 31
	var buf [maxFrameHeaderBytes]byte
	off := rec.HeaderLen
	for len(rec.Entries) < maxChunks && off < size {
		want := min(int64(len(buf)), size-off)
		if err := ReadFullAt(src, buf[:want], off); err != nil {
			break
		}
		c, payStart, plen, err := ScanFrameHeader(buf[:want], &hScan)
		if err != nil || c.Offset != rec.Planes || plen == 0 {
			break // no codec emits an empty payload: junk, not a frame
		}
		payOff := off + int64(payStart)
		if payOff+int64(plen) > size {
			break // the frame's payload runs past EOF: a torn tail
		}
		crc, err := CRC32At(src, payOff, int64(plen))
		if err != nil || crc != c.Checksum {
			break
		}
		rec.Entries = append(rec.Entries, IndexEntry{
			FrameOff: off, PlaneOff: c.Offset, Planes: c.Dims[0], Codec: c.CodecID})
		rec.Modes = append(rec.Modes, c.CodecMode)
		rec.Planes += c.Dims[0]
		off = payOff + int64(plen)
		rec.FramesEnd = off
	}
	if h.Version >= version4 {
		rec.Footer = footerState(src, rec)
	}
	return rec, nil
}

// footerState checks whether a valid chunk-index footer seals exactly the
// scanned frames: the fixed tail's backpointer must land on the frame
// boundary, the index body must CRC and parse against the scanned plane
// coverage, and every entry must match the scan.
func footerState(src io.ReaderAt, rec *RecoveryInfo) FooterState {
	if rec.Size == rec.FramesEnd {
		return FooterMissing
	}
	// Minimal footer: a 1-byte count, 3 bytes of entry, CRC and tail.
	if len(rec.Entries) == 0 || rec.Size-rec.FramesEnd < IndexTailLen+5 {
		return FooterTorn
	}
	regionLen := rec.Size - IndexTailLen - rec.FramesEnd
	if regionLen > int64(len(rec.Entries))*30+64 {
		return FooterTorn // wildly oversized for an index: a torn tail
	}
	var tail [IndexTailLen]byte
	if ReadFullAt(src, tail[:], rec.Size-IndexTailLen) != nil {
		return FooterTorn
	}
	footerOff, err := ParseChunkIndexTail(tail[:])
	if err != nil || footerOff != rec.FramesEnd {
		return FooterTorn
	}
	region := make([]byte, regionLen)
	if ReadFullAt(src, region, footerOff) != nil {
		return FooterTorn
	}
	// Parse against what the scan proved, not the (possibly stale) header.
	hEff := *rec.Header
	hEff.Dims = append([]int(nil), rec.Header.Dims...)
	hEff.Dims[0] = rec.Planes
	hEff.NumChunks = len(rec.Entries)
	entries, err := ParseChunkIndex(region, &hEff, footerOff)
	if err != nil {
		return FooterTorn
	}
	for i, e := range entries {
		if e != rec.Entries[i] {
			return FooterTorn
		}
	}
	return FooterValid
}

// RecoveredCodec reports the codec the scanned frames prove, for
// re-deriving a crashed writer's state. For a v5 container it returns the
// single registered codec every frame shares, or uniform=false when the
// frames mix codecs (the store continues in per-shard adaptive mode). For
// v2–v4 it maps the last frame's codec-mode byte back to the registered
// assembly. Zero scanned frames report ok=false: the caller picks a
// default.
func (r *RecoveryInfo) RecoveredCodec() (cd Codec, uniform, ok bool) {
	if len(r.Entries) == 0 {
		return nil, false, false
	}
	if r.Header.Version < version5 {
		cd, ok = codecForFrameMode(r.Modes[len(r.Modes)-1])
		return cd, ok, ok
	}
	for _, e := range r.Entries[1:] {
		if e.Codec != r.Entries[0].Codec {
			return nil, false, true
		}
	}
	cd, ok = CodecByID(r.Entries[0].Codec)
	return cd, ok, ok
}
