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
	"fmt"
	"io"
)

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

// ScanRecovery walks the chunked (v2–v5) container held by src (size
// bytes long) from the front, verifying every frame header and payload
// CRC, and reports the longest contiguous valid prefix: its policy is to
// stop at the first bad frame. It never writes; repair and append tooling
// act on its report. Corrupt or non-chunked prefixes fail with
// ErrCorrupt; a well-formed header with zero valid frames is a successful
// scan of an empty prefix.
func ScanRecovery(src io.ReaderAt, size int64) (*RecoveryInfo, error) {
	ver, h, headerLen, err := OpenChunked(src, size)
	if err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("core: not a chunked container (version %d)", ver)
	}
	rec := &RecoveryInfo{Header: h, HeaderLen: headerLen, FramesEnd: headerLen, Size: size}
	// The header's plane count is stale after a crash: walk against a
	// relaxed copy so frames appended past the last seal still validate.
	// dims[1:], the chunk thickness and the frame layout stay binding.
	hScan := *h
	hScan.Dims = append([]int(nil), h.Dims...)
	hScan.Dims[0] = 1 << 31
	w := WalkAt(&hScan, src, size, headerLen)
	// The first bad frame ends the valid prefix; why it is bad is moot.
	_ = w.Walk(maxChunks, func(f Frame) error {
		if f.PayLen == 0 {
			return ErrCorrupt // no codec emits an empty payload: junk, not a frame
		}
		if err := w.VerifyCRC(f); err != nil {
			return err
		}
		rec.Entries = append(rec.Entries, f.Entry)
		rec.Modes = append(rec.Modes, f.Info.CodecMode)
		rec.Planes, rec.FramesEnd = w.Planes, w.Off
		return nil
	})
	if h.Version >= version4 {
		rec.Footer = footerState(src, rec)
	}
	return rec, nil
}

// footerState checks whether a valid chunk-index footer seals exactly the
// scanned frames: loaded against the plane coverage the scan proved, its
// entries must match the scanned frames one for one and its backpointer
// must land on their end.
func footerState(src io.ReaderAt, rec *RecoveryInfo) FooterState {
	if rec.Size == rec.FramesEnd {
		return FooterMissing
	}
	if len(rec.Entries) == 0 {
		return FooterTorn
	}
	// Load against what the scan proved, not the (possibly stale) header.
	hEff := *rec.Header
	hEff.Dims = append([]int(nil), rec.Header.Dims...)
	hEff.Dims[0] = rec.Planes
	hEff.NumChunks = len(rec.Entries)
	ix, err := LoadIndex(src, rec.Size, &hEff, rec.HeaderLen)
	if err != nil || ix.FramesEnd != rec.FramesEnd {
		return FooterTorn
	}
	for i, e := range ix.Entries {
		if checkEntry(e, rec.Entries[i]) != nil {
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
