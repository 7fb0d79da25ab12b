// One frame walker and one chunked read driver for every chunked reader.
// Every reader opens a chunked (v2–v5) container's header with
// OpenChunked, steps through its frames with a FrameWalker, loads its
// v4/v5 footer with LoadIndex and compares footer entries with frames by
// IndexEntry equality, so no two readers can disagree on what a valid
// container is.
//
// The positioned readers go one step further and share a driver.
// OpenIndex builds an Index over an io.ReaderAt: the footer of a v4/v5
// container, or one walk of the frame headers of a v2/v3 one. DecodePlanes
// then decodes any run of planes from it, chunk by chunk on the device's
// workers. The in-memory decode (DecompressCtx) is DecodePlanes over all
// planes of a bytes.Reader; the random-access reader (stream.ReaderAt) is
// DecodePlanes over a window. The readers differ only in policy: what they
// do with a frame whose header or CRC is bad (abort, fill, record and
// continue, or stop) and whether they trust the footer.
package core

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/pipeline"
)

// MaxFrameHeaderLen bounds a chunk frame header: the plane offset and up
// to 8 shard dims (uvarints), the codec-mode byte, the v5 codec-ID byte,
// the v3+ 8-byte value range, the payload-length uvarint and the CRC. One
// read of this many bytes at a frame's start holds its whole header.
const MaxFrameHeaderLen = 96

// countingReader counts the bytes an io.Reader delivers, so a header
// opener learns the variable-length global header's size.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readChunkedHeaderLen is ReadChunkedHeader that also reports the header's
// byte length: where the first frame starts.
func readChunkedHeaderLen(r io.Reader) (*ChunkedInfo, int64, error) {
	cr := &countingReader{r: r}
	h, err := ReadChunkedHeader(cr)
	return h, cr.n, err
}

// OpenChunked is the one header opener of the positioned readers. It
// sniffs the magic and version of the container held by src (size bytes
// long) and, for a chunked (v2–v5) container, reads the global header and
// its byte length. A one-shot v1 blob reports version 1 and a nil header;
// anything that is not a container fails with ErrCorrupt.
func OpenChunked(src io.ReaderAt, size int64) (ver int, h *ChunkedInfo, headerLen int64, err error) {
	var pre [5]byte
	if size < int64(len(pre)) || ReadFullAt(src, pre[:], 0) != nil {
		return 0, nil, 0, ErrCorrupt
	}
	ver, ok := SniffVersion(pre[:])
	if !ok {
		return 0, nil, 0, ErrCorrupt
	}
	if ver == version {
		return ver, nil, 0, nil
	}
	h, headerLen, err = readChunkedHeaderLen(io.NewSectionReader(src, 0, size))
	return ver, h, headerLen, err
}

// FrameWalker steps through a chunked container's frames in order. It
// holds the global header, the byte offset of the next frame and the
// planes the frames walked so far cover. Next takes the bytes at that
// offset from the walker's input — a blob slice, one ReadAt, or a
// bufio.Reader's Peek — parses them with ScanFrameHeader, and checks that
// the frame continues the planes walked so far and that its payload ends
// within the input. It never checks the payload CRC: VerifyCRC does, when
// the policy on top asks.
type FrameWalker struct {
	H      *ChunkedInfo
	Off    int64 // where the next frame starts
	Planes int   // planes the walked frames cover
	Frames int   // frames walked

	limit int64                    // every frame must end by here
	blob  []byte                   // in-memory input: container bytes from offset base on
	base  int64                    // container offset of blob[0]
	src   io.ReaderAt              // positioned input
	hdr   *[MaxFrameHeaderLen]byte // ReadAt scratch for src
	seq   *bufio.Reader            // sequential input
}

// Frame is one walked chunk frame.
type Frame struct {
	Chunk  int        // position in the walk
	Info   *ChunkInfo // the parsed frame header
	Entry  IndexEntry // the index entry the frame proves
	PayOff int64      // where the payload starts
	PayLen int
	// Payload holds the payload bytes when the input has them in hand (a
	// blob, or read from a sequential input); nil walking an io.ReaderAt.
	Payload []byte
}

// End returns the offset just past the frame.
func (f *Frame) End() int64 { return f.PayOff + int64(f.PayLen) }

// WalkBlob walks blob, the container's bytes from offset base on, from
// the frame at off. Payloads are subslices of blob.
func WalkBlob(h *ChunkedInfo, blob []byte, base, off int64) FrameWalker {
	return FrameWalker{H: h, Off: off, limit: base + int64(len(blob)), blob: blob, base: base}
}

// WalkAt walks the container held by src, size bytes long, from the frame
// at off, reading only frame headers.
func WalkAt(h *ChunkedInfo, src io.ReaderAt, size, off int64) FrameWalker {
	return FrameWalker{H: h, Off: off, limit: size, src: src}
}

// WalkStream reads a chunked container's global header from br and
// returns a walker at its first frame that consumes br frame by frame,
// payloads included.
func WalkStream(br *bufio.Reader) (FrameWalker, error) {
	h, n, err := readChunkedHeaderLen(br)
	return FrameWalker{H: h, Off: n, limit: math.MaxInt64, seq: br}, err
}

// Next walks one frame and advances past it. A frame whose header does
// not parse, does not start at the next plane, or whose payload runs past
// the input fails with ErrCorrupt (a positioned read that fails
// transiently surfaces as is) and leaves the walker where it was.
func (w *FrameWalker) Next() (Frame, error) {
	var f Frame
	var err error
	switch {
	case w.seq != nil:
		f, err = w.nextSeq()
	case w.src != nil:
		n := min(MaxFrameHeaderLen, w.limit-w.Off)
		if n <= 0 {
			return Frame{}, errShortFrame
		}
		if w.hdr == nil {
			w.hdr = new([MaxFrameHeaderLen]byte)
		}
		if rerr := ReadFullAt(w.src, w.hdr[:n], w.Off); rerr != nil {
			return Frame{}, readErr(rerr)
		}
		f, err = w.parse(w.hdr[:n])
	default:
		if w.Off < w.base || w.Off > w.limit {
			return Frame{}, ErrCorrupt
		}
		if f, err = w.parse(w.blob[w.Off-w.base:]); err == nil {
			f.Payload = w.blob[f.PayOff-w.base : f.End()-w.base]
		}
	}
	if err != nil {
		return Frame{}, err
	}
	w.Off = f.End()
	w.Planes += f.Entry.Planes
	w.Frames++
	return f, nil
}

// parse checks the frame header at the front of buf, the bytes at w.Off.
func (w *FrameWalker) parse(buf []byte) (Frame, error) {
	c, payStart, plen, err := ScanFrameHeader(buf, w.H)
	if err != nil {
		return Frame{}, err
	}
	if c.Offset != w.Planes {
		return Frame{}, fmt.Errorf("core: frame @0x%x covers plane %d, expected %d: %w", w.Off, c.Offset, w.Planes, ErrCorrupt)
	}
	f := Frame{Chunk: w.Frames, Info: c, PayOff: w.Off + int64(payStart), PayLen: plen,
		Entry: IndexEntry{FrameOff: w.Off, PlaneOff: c.Offset, Planes: c.Dims[0], Codec: c.CodecID}}
	if f.End() > w.limit {
		return Frame{}, fmt.Errorf("core: frame @0x%x runs past the end at 0x%x: %w", w.Off, w.limit, ErrCorrupt)
	}
	return f, nil
}

// nextSeq parses the next frame of the sequential input and reads its
// payload. It peeks at no more header bytes than br already buffers or
// the header needs, so it never waits for bytes past the header: a pipe
// held open after the container cannot stall it.
func (w *FrameWalker) nextSeq() (Frame, error) {
	for n := 1; ; n++ {
		n = max(n, min(w.seq.Buffered(), MaxFrameHeaderLen))
		buf, perr := w.seq.Peek(n)
		f, err := w.parse(buf)
		if err == errShortFrame && perr == nil && n < MaxFrameHeaderLen {
			continue
		}
		if err != nil {
			return Frame{}, err
		}
		_, _ = w.seq.Discard(int(f.PayOff - w.Off)) // the header is buffered: cannot fail
		f.Payload, err = readPayload(w.seq, uint64(f.PayLen))
		return f, err
	}
}

// Walk is the one loop that steps from frame to frame. From where w
// stands it walks frames, handing each to visit, until n frames are
// walked or the input ends. It stops at the first frame Next rejects or
// visit refuses, and returns that error.
func (w *FrameWalker) Walk(n int, visit func(Frame) error) error {
	for w.Frames < n && w.Off < w.limit {
		f, err := w.Next()
		if err != nil {
			return err
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// Covered reports whether the frames walked are exactly the ones the
// header declares: its chunk count, tiling its planes.
func (w *FrameWalker) Covered() bool {
	return w.Frames == w.H.NumChunks && w.Planes == w.H.Dims[0]
}

// NextEntry walks the one frame index entry e locates. Besides Next's
// checks, the frame must prove exactly e and end exactly at end, where the
// next frame or the footer begins.
func (w *FrameWalker) NextEntry(e IndexEntry, end int64) (Frame, error) {
	w.Off, w.Planes = e.FrameOff, e.PlaneOff
	f, err := w.Next()
	if err != nil {
		return f, err
	}
	if err := checkEntry(e, f.Entry); err != nil {
		return f, err
	}
	if f.End() != end {
		return f, fmt.Errorf("core: frame @0x%x ends at 0x%x, the next starts at 0x%x: %w", e.FrameOff, f.End(), end, ErrCorrupt)
	}
	return f, nil
}

// VerifyCRC checks f's payload against its header's CRC-32: the payload
// in hand, or the bytes at f.PayOff of the walker's io.ReaderAt.
func (w *FrameWalker) VerifyCRC(f Frame) error {
	if w.src == nil {
		return checkCRC(f.Info, crc32.ChecksumIEEE(f.Payload))
	}
	crc, err := CRC32At(w.src, f.PayOff, int64(f.PayLen))
	if err != nil {
		return err
	}
	return checkCRC(f.Info, crc)
}

// checkCRC compares a payload's CRC-32 with its frame header's.
func checkCRC(c *ChunkInfo, crc uint32) error {
	if crc != c.Checksum {
		return fmt.Errorf("core: chunk at plane %d: checksum mismatch: %w", c.Offset, ErrCorrupt)
	}
	return nil
}

// checkEntry is the one cross-check of an index entry against the entry a
// walked frame proves. Neither the footer nor the frame header is covered
// by the other's CRC, so they must agree field for field.
func checkEntry(index, frame IndexEntry) error {
	if index == frame {
		return nil
	}
	return fmt.Errorf("core: chunk index entry {frame @0x%x, planes %d+%d, codec %s} disagrees with frame {@0x%x, planes %d+%d, codec %s}: %w",
		index.FrameOff, index.PlaneOff, index.Planes, CodecLabel(index.Codec),
		frame.FrameOff, frame.PlaneOff, frame.Planes, CodecLabel(frame.Codec), ErrCorrupt)
}

// readErr classifies a failed positioned read: a transient I/O failure
// passes through, so callers can tell a flaky device from a rotten store;
// a short read means the container is truncated, which is corruption.
func readErr(err error) error {
	if IsTransient(err) {
		return err
	}
	return fmt.Errorf("core: container truncated (%v): %w", err, ErrCorrupt)
}

// Index locates every frame of a chunked container held by an
// io.ReaderAt: the one structure DecodePlanes decodes from. Its entries
// tile the header's planes in frame order, and frame i spans
// [Entries[i].FrameOff, End(i)) with no gap between frames.
type Index struct {
	H         *ChunkedInfo
	Entries   []IndexEntry
	FramesEnd int64 // where the last frame ends: the footer, or the end of a footerless container
	src       io.ReaderAt
}

// End returns where frame i ends: where the next frame starts, or
// FramesEnd for the last.
func (ix *Index) End(i int) int64 {
	if i+1 < len(ix.Entries) {
		return ix.Entries[i+1].FrameOff
	}
	return ix.FramesEnd
}

// Covering returns the run [a, b) of entries whose planes overlap
// [lo, hi). The entries tile the planes in order, so the covering ones are
// always one run.
func (ix *Index) Covering(lo, hi int) (a, b int) {
	a = sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].PlaneOff+ix.Entries[i].Planes > lo })
	b = sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].PlaneOff >= hi })
	return a, b
}

// OpenIndex is the one index opener of the positioned readers. For a
// chunked container held by src (size bytes long) it reads the header and
// builds its Index: from the footer of a v4/v5 container (LoadIndex), or
// from one walk of a v2/v3 container's frame headers, which skips every
// payload by offset arithmetic and must cover the header's chunks and
// planes and end exactly at size. A one-shot v1 blob reports version 1 and
// a nil index; anything that is not a container fails with ErrCorrupt.
func OpenIndex(src io.ReaderAt, size int64) (int, *Index, error) {
	ver, h, headerLen, err := OpenChunked(src, size)
	if err != nil || h == nil {
		return ver, nil, err
	}
	if h.Version >= version4 {
		ix, err := LoadIndex(src, size, h, headerLen)
		return ver, ix, err
	}
	// Entries grow with the frames walked: the header's chunk count is
	// unproven until then.
	ix := &Index{H: h, FramesEnd: size, src: src}
	w := WalkAt(h, src, size, headerLen)
	err = w.Walk(h.NumChunks, func(f Frame) error {
		ix.Entries = append(ix.Entries, f.Entry)
		return nil
	})
	if err == nil && (!w.Covered() || w.Off != size) {
		err = ErrCorrupt // missing frames, a gap in plane coverage, or trailing bytes
	}
	if err != nil {
		return ver, nil, err
	}
	return ver, ix, nil
}

// LoadIndex is the one v4/v5 footer loader. It reads the fixed tail of the
// container held by src (size bytes long), follows its backpointer and
// parses the index body against h, whose header is headerLen bytes: the
// entries must tile h's planes and the first must start where the header
// ends. The index's FramesEnd is where the footer starts. No frame bytes
// are read.
func LoadIndex(src io.ReaderAt, size int64, h *ChunkedInfo, headerLen int64) (*Index, error) {
	if size < headerLen+IndexTailLen {
		return nil, fmt.Errorf("core: no room for the chunk index tail: %w", ErrCorrupt)
	}
	var tail [IndexTailLen]byte
	if err := ReadFullAt(src, tail[:], size-IndexTailLen); err != nil {
		return nil, readErr(err)
	}
	footerOff, err := ParseChunkIndexTail(tail[:])
	if err != nil {
		return nil, err
	}
	if footerOff < headerLen || footerOff > size-IndexTailLen {
		return nil, fmt.Errorf("core: chunk index backpointer 0x%x outside the frames: %w", footerOff, ErrCorrupt)
	}
	// At most four uvarints per entry plus the count and CRC: a region
	// wildly larger than that is hostile, not an index.
	regionLen := size - IndexTailLen - footerOff
	if regionLen > int64(h.NumChunks)*30+64 {
		return nil, fmt.Errorf("core: chunk index region oversized (%d bytes): %w", regionLen, ErrCorrupt)
	}
	region := make([]byte, regionLen)
	if err := ReadFullAt(src, region, footerOff); err != nil {
		return nil, readErr(err)
	}
	entries, err := ParseChunkIndex(region, h, footerOff)
	if err != nil {
		return nil, err
	}
	if entries[0].FrameOff != headerLen {
		return nil, fmt.Errorf("core: first frame offset 0x%x disagrees with header end 0x%x: %w",
			entries[0].FrameOff, headerLen, ErrCorrupt)
	}
	return &Index{H: h, Entries: entries, FramesEnd: footerOff, src: src}, nil
}

// DecodePlanes is the one chunked decode loop. It decodes planes [lo, hi)
// of the field into dst, grown from ctx (nil allocates) when its capacity
// is short, and returns it. Each covering chunk is decoded on one of dev's
// workers: its frame is read whole with one ReadAt into a pooled context,
// must prove its index entry, end where the next frame starts and pass its
// CRC, and of an interpolation payload only the blocks owning requested
// planes are reconstructed. A transient read error passes through as is; a
// truncated frame is ErrCorrupt. When dst must grow, the first chunk that
// decodes allocates it, so a strict read of a hostile header over junk
// payloads fails before it can force a field-sized allocation.
//
// A failed chunk aborts the call with an error that names the chunk and
// its offset, unless fault is set: then fault gets the chunk, the part of
// dst it covers and the bare cause, and the loop carries on. fault may run
// on several workers at once.
func (ix *Index) DecodePlanes(ctx *arena.Ctx, dev *gpusim.Device, dst []float32, lo, hi int,
	fault func(i int, span []float32, err error)) ([]float32, error) {
	ps := planeSize(ix.H.Dims)
	need := (hi - lo) * ps
	a, b := ix.Covering(lo, hi)
	out := &struct { // one heap cell shared by the workers
		grow sync.Once
		dst  []float32
	}{dst: dst}
	_, err := pipeline.MapWorker(dev.Workers(), b-a, func(_, j int) (struct{}, error) {
		i := a + j
		c, recon, err := ix.decodeChunk(dev, i, lo, hi)
		defer arena.Put(c)
		e := ix.Entries[i]
		if err != nil && fault == nil {
			return struct{}{}, fmt.Errorf("core: chunk %d @0x%x: %w", i, e.FrameOff, err)
		}
		out.grow.Do(func() {
			if cap(out.dst) < need {
				out.dst = ctx.F32(need)
			}
			out.dst = out.dst[:need]
		})
		span := out.dst[(max(e.PlaneOff, lo)-lo)*ps : (min(e.PlaneOff+e.Planes, hi)-lo)*ps]
		if err != nil {
			fault(i, span, err)
		} else {
			copy(span, recon)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return out.dst, nil
}

// decodeChunk reads chunk i's frame into a pooled context, checks it and
// decodes the chunk's planes within [lo, hi). The planes are scratch of
// the returned context, which the caller recycles.
func (ix *Index) decodeChunk(dev *gpusim.Device, i, lo, hi int) (*arena.Ctx, []float32, error) {
	e, end := ix.Entries[i], ix.End(i)
	ctx := arena.Get()
	buf := ctx.Bytes(int(end - e.FrameOff))
	if err := ReadFullAt(ix.src, buf, e.FrameOff); err != nil {
		return ctx, nil, readErr(err)
	}
	// The payload stays a subslice of buf: no per-chunk copy.
	w := WalkBlob(ix.H, buf, e.FrameOff, e.FrameOff)
	f, err := w.NextEntry(e, end)
	if err == nil {
		err = w.VerifyCRC(f)
	}
	if err != nil {
		return ctx, nil, err
	}
	s0, s1 := max(e.PlaneOff, lo), min(e.PlaneOff+e.Planes, hi)
	recon, err := DecompressShardPlanesCtx(ctx, dev, f.Info, f.Payload, s0-e.PlaneOff, s1-e.PlaneOff)
	return ctx, recon, err
}
