package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// countingReaderAt records every ReadAt region, so tests can prove which
// byte ranges of a container a random-access read actually touched.
type countingReaderAt struct {
	r  io.ReaderAt
	mu sync.Mutex
	// regions is a list of [off, end) pairs, in call order.
	regions [][2]int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.regions = append(c.regions, [2]int64{off, off + int64(len(p))})
	c.mu.Unlock()
	return c.r.ReadAt(p, off)
}

func (c *countingReaderAt) reset() {
	c.mu.Lock()
	c.regions = nil
	c.mu.Unlock()
}

// writeV4 streams data into a fresh v4 container.
func writeV4(t testing.TB, data []float32, dims []int, eb float64, cp int, opt ...Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := append([]Option{WithChunkPlanes(cp)}, opt...)
	w, err := NewWriter(&buf, dims, eb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterEmitsV4ByDefault(t *testing.T) {
	dims := []int{12, 8, 8}
	data, _ := genField(t, "nyx", dims)
	blob := writeV4(t, data, dims, 0.1, 4, WithMode(cuszhi.ModeTP))
	info, err := cuszhi.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || !info.HasIndex || info.NumChunks != 3 {
		t.Fatalf("info = %+v", info)
	}
	// All three consumers read it: the one-shot decoder, the sequential
	// Reader, and the random-access ReaderAt.
	full, gotDims, err := cuszhi.Decompress(blob)
	if err != nil || gotDims[0] != 12 {
		t.Fatalf("one-shot decode: %v (dims %v)", err, gotDims)
	}
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seq, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if seq[i] != full[i] {
			t.Fatalf("sequential decode diverges at %d", i)
		}
	}
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ra.ReadPlanes(nil, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("random-access decode diverges at %d", i)
		}
	}
	// WithIndex(false) + relative bound still yields plain v3.
	blob3 := writeV4(t, data, dims, 1e-2, 4, WithMode(cuszhi.ModeTP), WithRelativeEB(), WithIndex(false))
	info3, err := cuszhi.Inspect(blob3)
	if err != nil || info3.Version != 3 || info3.HasIndex {
		t.Fatalf("v3 info = %+v (err %v)", info3, err)
	}
}

func TestReadPlanesMatchesFullDecode(t *testing.T) {
	dims := []int{30, 12, 12}
	data, _ := genField(t, "miranda", dims)
	absEB := cuszhi.AbsEB(data, 1e-3)
	blob := writeV4(t, data, dims, absEB, 7, WithMode(cuszhi.ModeTP))
	full, _, err := cuszhi.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if d := ra.Dims(); d[0] != 30 || ra.EB() != absEB || ra.Version() != 4 || ra.NumChunks() != 5 {
		t.Fatalf("ra = dims %v eb %v v%d chunks %d", d, ra.EB(), ra.Version(), ra.NumChunks())
	}
	ps := 12 * 12
	var dst []float32
	for _, rng := range [][2]int{{0, 1}, {0, 30}, {6, 8}, {7, 7 + 1}, {13, 22}, {29, 30}, {5, 14}} {
		lo, hi := rng[0], rng[1]
		dst, err = ra.ReadPlanes(dst, lo, hi)
		if err != nil {
			t.Fatalf("ReadPlanes(%d,%d): %v", lo, hi, err)
		}
		want := full[lo*ps : hi*ps]
		if len(dst) != len(want) {
			t.Fatalf("ReadPlanes(%d,%d): %d values, want %d", lo, hi, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("ReadPlanes(%d,%d) diverges from full decode at %d", lo, hi, i)
			}
		}
	}
	// Invalid ranges are refused.
	for _, rng := range [][2]int{{-1, 5}, {0, 31}, {5, 5}, {8, 3}} {
		if _, err := ra.ReadPlanes(nil, rng[0], rng[1]); err == nil {
			t.Fatalf("range %v accepted", rng)
		}
	}
}

// TestReadPlanesTouchesOnlyCoveringShards is the acceptance proof: a
// random-access read of planes [lo, hi) must read payload bytes only from
// the ⌈…⌉ shards covering the range, never the rest of the container.
func TestReadPlanesTouchesOnlyCoveringShards(t *testing.T) {
	dims := []int{32, 10, 10}
	data, _ := genField(t, "jhtdb", dims)
	blob := writeV4(t, data, dims, 0.05, 4, WithMode(cuszhi.ModeTP)) // 8 shards
	src := &countingReaderAt{r: bytes.NewReader(blob)}
	ra, err := OpenReaderAt(src, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Opening a v4 container must not touch any chunk payload: everything
	// it reads lies in the header or the footer region.
	framesEnd := int64(binary.LittleEndian.Uint64(blob[len(blob)-core.IndexTailLen:]))
	for _, reg := range src.regions {
		if reg[0] < framesEnd && reg[1] > 64 { // generous header bound
			t.Fatalf("open read frame bytes [%d,%d)", reg[0], reg[1])
		}
	}

	// Planes 13..19 with chunkPlanes 4 cover shards 3 and 4 → frames
	// [12..16) and [16..20) only.
	src.reset()
	got, err := ra.ReadPlanes(nil, 13, 19)
	if err != nil {
		t.Fatal(err)
	}
	lo64, hi64 := int64(len(blob)), int64(0)
	var readBytes int64
	for _, reg := range src.regions {
		if reg[0] < lo64 {
			lo64 = reg[0]
		}
		if reg[1] > hi64 {
			hi64 = reg[1]
		}
		readBytes += reg[1] - reg[0]
	}
	// The two covering frames span a contiguous byte range; everything
	// read must fall inside it, and in particular the 6 non-covering
	// frames and the footer must stay untouched.
	if hi64 > framesEnd {
		t.Fatalf("ReadPlanes read into the footer: [%d,%d)", lo64, hi64)
	}
	frameSpan := hi64 - lo64
	if frameSpan <= 0 || frameSpan > framesEnd*2/8+256 {
		t.Fatalf("ReadPlanes read %d bytes of %d frame bytes — more than ~2 of 8 shards", frameSpan, framesEnd)
	}
	if readBytes > frameSpan {
		t.Fatalf("overlapping reads: %d bytes read over a %d-byte span", readBytes, frameSpan)
	}
	// And the trimmed output matches the full decode.
	full, _, err := cuszhi.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	ps := 10 * 10
	for i, v := range got {
		if v != full[13*ps+i] {
			t.Fatalf("trimmed output diverges at %d", i)
		}
	}
}

// TestOpenReaderAtFallbacks proves v1/v2/v3 containers gain random access
// through the scan-built (or whole-decode) fallback index.
func TestOpenReaderAtFallbacks(t *testing.T) {
	dims := []int{20, 8, 8}
	data, _ := genField(t, "hurricane", dims)
	ps := 8 * 8

	v2 := writeV4(t, data, dims, 0.05, 6, WithMode(cuszhi.ModeTP), WithIndex(false))
	v3 := writeV4(t, data, dims, 1e-2, 6, WithMode(cuszhi.ModeTP), WithIndex(false), WithRelativeEB())
	v1, err := cuszhi.Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
		ver  int
	}{{"v1", v1, 1}, {"v2", v2, 2}, {"v3", v3, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			full, _, err := cuszhi.Decompress(tc.blob)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := OpenReaderAt(bytes.NewReader(tc.blob), int64(len(tc.blob)))
			if err != nil {
				t.Fatal(err)
			}
			if ra.Version() != tc.ver {
				t.Fatalf("version = %d", ra.Version())
			}
			got, err := ra.ReadPlanes(nil, 9, 14)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != full[9*ps+i] {
					t.Fatalf("plane window diverges at %d", i)
				}
			}
		})
	}
	// The one-shot convenience agrees.
	vals, gotDims, err := ReadPlanesAt(bytes.NewReader(v2), int64(len(v2)), 0, 2)
	if err != nil || gotDims[0] != 20 || len(vals) != 2*ps {
		t.Fatalf("ReadPlanesAt: %v (dims %v, %d vals)", err, gotDims, len(vals))
	}
}

// makeMixedV5 assembles a v5 container whose shards alternate between two
// codecs, using the core building blocks directly (the way the writer
// does), so the mixture is deterministic.
func makeMixedV5(t testing.TB, data []float32, dims []int, eb float64, cp int) ([]byte, []core.IndexEntry) {
	t.Helper()
	blob, err := core.AppendChunkedHeaderSized(nil, 5, dims, eb, false, cp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := planeElems(dims)
	names := []string{"cusz-l", "hi-tp"}
	var entries []core.IndexEntry
	for i, off := 0, 0; off < dims[0]; i, off = i+1, off+cp {
		planes := cp
		if off+planes > dims[0] {
			planes = dims[0] - off
		}
		cd, ok := core.CodecByName(names[i%2])
		if !ok {
			t.Fatal(names[i%2])
		}
		shard := data[off*ps : (off+planes)*ps]
		shardDims := append([]int{planes}, dims[1:]...)
		minV, maxV, _ := core.ShardRange(shard)
		payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, eb)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, core.IndexEntry{
			FrameOff: int64(len(blob)), PlaneOff: off, Planes: planes, Codec: cd.ID()})
		blob = core.AppendChunkFrameV5(blob, cd, off, shardDims, minV, maxV, payload)
	}
	return core.AppendChunkIndexFooter(blob, 5, int64(len(blob)), entries), entries
}

// TestReadPlanesMixedCodecV5 is the random-access half of the acceptance
// case: a v5 container whose chunks use two different codecs serves
// ReadPlanes windows identical to a full sequential decode, dispatching
// each covering shard through the registry, and reports its codec
// histogram from the index alone.
func TestReadPlanesMixedCodecV5(t *testing.T) {
	dims := []int{20, 8, 8}
	data, _ := genField(t, "hurricane", dims)
	blob, _ := makeMixedV5(t, data, dims, 0.05, 4) // 5 shards: l,tp,l,tp,l
	full, _, err := cuszhi.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Version() != 5 || ra.NumChunks() != 5 {
		t.Fatalf("ra = v%d chunks %d", ra.Version(), ra.NumChunks())
	}
	hist := ra.CodecHistogram()
	if hist["cusz-l"] != 3 || hist["hi-tp"] != 2 {
		t.Fatalf("codec histogram = %v", hist)
	}
	ps := 8 * 8
	var dst []float32
	for _, rng := range [][2]int{{0, 20}, {3, 9}, {7, 8}, {12, 20}} {
		lo, hi := rng[0], rng[1]
		dst, err = ra.ReadPlanes(dst, lo, hi)
		if err != nil {
			t.Fatalf("ReadPlanes(%d,%d): %v", lo, hi, err)
		}
		for i := range dst {
			if dst[i] != full[lo*ps+i] {
				t.Fatalf("ReadPlanes(%d,%d) diverges at %d", lo, hi, i)
			}
		}
	}
	// The sequential streaming Reader agrees too (the other acceptance
	// consumer for mixed-codec containers).
	r, err := NewReader(bytes.NewReader(blob), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seq, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if seq[i] != full[i] {
			t.Fatalf("stream.Reader diverges at %d", i)
		}
	}
}

// TestOpenReaderAtV5Hostile: v5-specific corruptions at the random-access
// layer — unknown codec IDs in the footer refuse to open; a lying (but
// self-consistent) footer codec is caught when the frame is read.
func TestOpenReaderAtV5Hostile(t *testing.T) {
	dims := []int{16, 6, 6}
	data, _ := genField(t, "nyx", dims)
	blob, entries := makeMixedV5(t, data, dims, 0.1, 4)
	framesEnd := int64(binary.LittleEndian.Uint64(blob[len(blob)-core.IndexTailLen:]))
	open := func(b []byte) (*ReaderAt, error) {
		return OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	}
	if _, err := open(blob); err != nil {
		t.Fatal(err) // the uncorrupted container must open
	}

	t.Run("unknown codec id in footer", func(t *testing.T) {
		lie := append([]core.IndexEntry(nil), entries...)
		lie[2].Codec = 0x7f
		bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 5, framesEnd, lie)
		if _, err := open(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("footer codec disagrees with frame", func(t *testing.T) {
		lie := append([]core.IndexEntry(nil), entries...)
		lie[0].Codec = core.CodecHiTP // valid ID, wrong chunk
		bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 5, framesEnd, lie)
		ra, err := open(bad)
		if err != nil {
			t.Fatalf("open refused a self-consistent (if lying) index: %v", err)
		}
		if _, err := ra.ReadPlanes(nil, 0, 4); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown codec id in frame", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[entries[0].FrameOff+5] = 0x7f // offset + 3 dims + mode byte
		ra, err := open(bad)
		if err != nil {
			t.Fatalf("open reads no frames, must succeed: %v", err)
		}
		if _, err := ra.ReadPlanes(nil, 0, 4); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}

// eofReaderAt follows the strict io.ReaderAt contract: a full read ending
// exactly at EOF returns io.EOF alongside the data (as an HTTP-range or
// object-store adapter legitimately might).
type eofReaderAt struct {
	data []byte
}

func (e *eofReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(e.data)) {
		return 0, io.EOF
	}
	n := copy(p, e.data[off:])
	if off+int64(n) == int64(len(e.data)) {
		return n, io.EOF
	}
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// TestReaderAtToleratesEOFOnExactReads: reads that end exactly at EOF (the
// v4 tail, a v2 last frame, a whole v1 blob) may come back with io.EOF per
// the io.ReaderAt contract and must not be mistaken for corruption.
func TestReaderAtToleratesEOFOnExactReads(t *testing.T) {
	dims := []int{10, 6, 6}
	data, _ := genField(t, "nyx", dims)
	v4 := writeV4(t, data, dims, 0.1, 4, WithMode(cuszhi.ModeTP))
	v2 := writeV4(t, data, dims, 0.1, 4, WithMode(cuszhi.ModeTP), WithIndex(false))
	v1, err := cuszhi.Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{{"v4", v4}, {"v2", v2}, {"v1", v1}} {
		t.Run(tc.name, func(t *testing.T) {
			ra, err := OpenReaderAt(&eofReaderAt{data: tc.blob}, int64(len(tc.blob)))
			if err != nil {
				t.Fatal(err)
			}
			// The last planes force the final frame (or the whole blob)
			// to be read right up to EOF.
			if _, err := ra.ReadPlanes(nil, 8, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenReaderAtHostileInputs drives the footer loader and ReadPlanes
// through corrupted v4 containers.
func TestOpenReaderAtHostileInputs(t *testing.T) {
	dims := []int{16, 6, 6}
	data, _ := genField(t, "nyx", dims)
	blob := writeV4(t, data, dims, 0.1, 4, WithMode(cuszhi.ModeTP))
	framesEnd := int64(binary.LittleEndian.Uint64(blob[len(blob)-core.IndexTailLen:]))
	open := func(b []byte) (*ReaderAt, error) {
		return OpenReaderAt(bytes.NewReader(b), int64(len(b)))
	}

	t.Run("truncated footer", func(t *testing.T) {
		for cut := 1; cut <= core.IndexTailLen+2; cut++ {
			if _, err := open(blob[:len(blob)-cut]); err == nil {
				t.Fatalf("footer truncated by %d opened without error", cut)
			}
		}
	})
	t.Run("index crc mismatch", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[framesEnd] ^= 0x01
		if _, err := open(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("backpointer past EOF", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[len(bad)-core.IndexTailLen:], uint64(len(bad)+100))
		if _, err := open(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("frame offset past EOF", func(t *testing.T) {
		// Rebuild the footer (valid CRC) pointing a frame past the end of
		// the file: the open must refuse it, not ReadAt out of bounds.
		h, err := core.ReadChunkedHeader(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		region := blob[framesEnd : len(blob)-core.IndexTailLen]
		entries, err := core.ParseChunkIndex(region, h, framesEnd)
		if err != nil {
			t.Fatal(err)
		}
		lie := append([]core.IndexEntry(nil), entries...)
		lie[len(lie)-1].FrameOff = int64(len(blob)) + 50
		bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 4, framesEnd, lie)
		if _, err := open(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("index disagrees with frame", func(t *testing.T) {
		// A self-consistent index (valid CRC, valid tiling, increasing
		// offsets) whose byte offsets lie by one: the open succeeds, and
		// the read must catch the disagreement rather than decode from
		// the wrong place.
		h, err := core.ReadChunkedHeader(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		region := blob[framesEnd : len(blob)-core.IndexTailLen]
		entries, err := core.ParseChunkIndex(region, h, framesEnd)
		if err != nil {
			t.Fatal(err)
		}
		lie := append([]core.IndexEntry(nil), entries...)
		lie[1].FrameOff++
		bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 4, framesEnd, lie)
		ra, err := OpenReaderAt(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatalf("open refused a self-consistent (if lying) index: %v", err)
		}
		if _, err := ra.ReadPlanes(nil, 4, 12); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("v1 dims overflow", func(t *testing.T) {
		// A one-shot header whose dims {4, 2^31, 2^31-1} multiply past
		// 2^63: the product wraps negative, so the 2^33 cap must be checked
		// before each multiplication. The Lorenzo payload is empty.
		for _, last := range []uint64{1 << 31, 1<<31 - 1} {
			b := append([]byte("cSZh"), 1, byte(core.PredLorenzo), 3)
			for _, d := range []uint64{4, 1 << 31, last} {
				b = binary.AppendUvarint(b, d)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.1))
			if _, _, err := core.DecompressCtx(nil, gpusim.New(1), b); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("DecompressCtx: err = %v", err)
			}
			if _, err := core.Inspect(b); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("Inspect: err = %v", err)
			}
			ra, err := open(b)
			if err == nil {
				_, err = ra.ReadPlanes(nil, 0, 1)
			}
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("ReaderAt: err = %v", err)
			}
		}
	})
	t.Run("garbage", func(t *testing.T) {
		for _, b := range [][]byte{nil, []byte("xx"), []byte("cSZh"), bytes.Repeat([]byte{7}, 64)} {
			if _, err := open(b); err == nil {
				t.Fatalf("garbage %q opened", b)
			}
		}
	})
}

// TestHostileHeaderAllocGuard: a v4 container whose header declares 2^27
// values in one chunk over a few junk payload bytes must fail with
// ErrCorrupt on both whole-field paths before either allocates the 512 MiB
// field: the in-memory decode and ReadPlanes with a nil dst both grow the
// output only once a chunk has decoded.
func TestHostileHeaderAllocGuard(t *testing.T) {
	dims := []int{2, 8192, 8192}
	blob, err := core.AppendChunkedHeaderSized(nil, 4, dims, 0.01, false, dims[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	entry := core.IndexEntry{FrameOff: int64(len(blob)), Planes: dims[0]}
	blob = core.AppendChunkFrameV3(blob, core.HiCR(), 0, dims, 0, 1, []byte("junk"))
	blob = core.AppendChunkIndexFooter(blob, 4, int64(len(blob)), []core.IndexEntry{entry})
	const limit = 64 << 20
	allocated := func(label string, run func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", label, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
			t.Fatalf("%s allocated %d MiB before failing", label, n>>20)
		}
	}
	allocated("DecompressCtx", func() error {
		_, _, err := core.DecompressCtx(nil, gpusim.New(1), blob)
		return err
	})
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	allocated("ReadPlanes", func() error {
		_, err := ra.ReadPlanes(nil, 0, dims[0])
		return err
	})
}
