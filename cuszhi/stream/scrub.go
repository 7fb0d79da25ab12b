// Store scrubbing: deep integrity verification without decoding to
// floats. Scrub walks every chunk frame of a sealed container, checking
// each frame header parses, each payload CRC matches, the chunk-index
// footer (v4/v5) CRCs and cross-checks against the frames it claims to
// seal, and the global header agrees with what the frames prove — the
// audit a production store runs periodically to catch bit-rot before a
// reader does. Damage is localized per chunk, never aborting the walk
// while the frame chain stays parseable, so one report names every rotten
// chunk a repair or degraded read will encounter.
package stream

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// ScrubReport is the result of deep-verifying one container.
type ScrubReport struct {
	Version   int   // container format version
	SizeBytes int64 // scanned size
	Chunks    int   // chunks the container claims
	Verified  int   // chunks that passed every check
	// Damaged lists the chunks that failed a check, ascending by index.
	// A damaged chunk is exactly one a degraded read would fill.
	Damaged []ChunkDamage
	// FooterErr is non-nil when a v4/v5 container's chunk-index footer is
	// itself damaged (bad tail magic, CRC mismatch, frames/footer
	// disagreement). The frames are then verified by sequential walk.
	FooterErr error
	// HeaderErr is non-nil when the global header disagrees with what the
	// frames prove (plane count, chunk count), or frames are missing.
	HeaderErr error
}

// Clean reports whether the container passed every check.
func (s *ScrubReport) Clean() bool {
	return len(s.Damaged) == 0 && s.FooterErr == nil && s.HeaderErr == nil
}

// Summary renders the report as one line per problem (or "clean").
func (s *ScrubReport) Summary() string {
	if s.Clean() {
		return fmt.Sprintf("clean: v%d, %d chunk(s) verified, %d bytes", s.Version, s.Verified, s.SizeBytes)
	}
	out := fmt.Sprintf("damaged: %d of %d chunk(s) failed verification", len(s.Damaged), s.Chunks)
	for _, d := range s.Damaged {
		out += fmt.Sprintf("\n  chunk %d @0x%x (planes %d..%d): %v",
			d.Chunk, d.Offset, d.PlaneOff, d.PlaneOff+d.Planes, d.Err)
	}
	if s.FooterErr != nil {
		out += fmt.Sprintf("\n  footer: %v", s.FooterErr)
	}
	if s.HeaderErr != nil {
		out += fmt.Sprintf("\n  header: %v", s.HeaderErr)
	}
	return out
}

// Scrub deep-verifies the container held by src (size bytes long) without
// decoding any chunk to floats: every frame header must parse, every
// payload CRC must match, and for v4/v5 the chunk-index footer must CRC
// and agree with the frames entry by entry. WithRetry applies to every
// read the scrub issues. The returned report localizes damage per chunk;
// the error return is reserved for containers too damaged to scrub at all
// (unparseable global header, not a container) — v1 blobs, which carry no
// frame checksums, are also rejected here.
func Scrub(src io.ReaderAt, size int64, opt ...Option) (*ScrubReport, error) {
	cfg := newConfig(opt)
	src = cfg.retry.WrapReaderAt(src)
	version, h, headerLen, err := core.OpenChunked(src, size)
	if err != nil {
		return nil, err
	}
	if h == nil {
		return nil, errors.New("stream: scrub requires a chunked container (v2+); v1 blobs carry no frame checksums")
	}
	rep := &ScrubReport{Version: version, SizeBytes: size, Chunks: h.NumChunks}
	w := core.WalkAt(h, src, size, headerLen)
	if h.Version >= 4 {
		ix, ferr := core.LoadIndex(src, size, h, headerLen)
		if ferr == nil {
			scrubWithIndex(&w, ix, rep)
			return rep, nil
		}
		// The footer itself is damaged: record that and verify the frames
		// by sequential walk instead — the header still locates them.
		rep.FooterErr = ferr
	}
	scrubSequential(&w, size, rep)
	return rep, nil
}

// scrubWithIndex verifies each frame against its (already CRC-valid)
// footer entry: the frame header must parse, prove exactly the entry, end
// where the next frame starts, and its payload CRC must match. Every
// chunk is checked — the footer locates frames independently, so damage
// in one never hides damage in another. The footer already tiles the
// header's planes with its chunk count.
func scrubWithIndex(w *core.FrameWalker, ix *core.Index, rep *ScrubReport) {
	for i, e := range ix.Entries {
		f, err := w.NextEntry(e, ix.End(i))
		if err == nil {
			err = w.VerifyCRC(f)
		}
		if err != nil {
			rep.Damaged = append(rep.Damaged, ChunkDamage{
				Chunk: i, Offset: e.FrameOff, PlaneOff: e.PlaneOff, Planes: e.Planes, Err: err})
			continue
		}
		rep.Verified++
	}
}

// scrubSequential verifies frames by walking the chain from the header,
// for containers without a usable footer (v2/v3, or v4/v5 whose footer is
// itself damaged). A payload CRC mismatch doesn't stop the walk — the
// frame header still gives the next frame's position — but an unparseable
// frame header does: past it every offset is guesswork.
func scrubSequential(w *core.FrameWalker, size int64, rep *ScrubReport) {
	h := w.H
	err := w.Walk(h.NumChunks, func(f core.Frame) error {
		if err := w.VerifyCRC(f); err != nil {
			e := f.Entry
			rep.Damaged = append(rep.Damaged, ChunkDamage{
				Chunk: f.Chunk, Offset: e.FrameOff, PlaneOff: e.PlaneOff, Planes: e.Planes, Err: err})
			return nil
		}
		rep.Verified++
		return nil
	})
	switch {
	case err != nil:
		// Structural damage: the walk cannot step past this frame.
		rep.Damaged = append(rep.Damaged, ChunkDamage{Chunk: w.Frames, Offset: w.Off, PlaneOff: w.Planes, Err: err})
	case w.Frames < h.NumChunks:
		rep.HeaderErr = fmt.Errorf("frames end after chunk %d of %d: %w", w.Frames, h.NumChunks, core.ErrCorrupt)
	case w.Planes != h.Dims[0]:
		rep.HeaderErr = fmt.Errorf("header claims %d planes, frames cover %d: %w",
			h.Dims[0], w.Planes, core.ErrCorrupt)
	case h.Version < 4 && w.Off != size:
		rep.HeaderErr = fmt.Errorf("%d trailing bytes after the frames: %w", size-w.Off, core.ErrCorrupt)
	}
}
