package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/metrics"
)

// memFile is an in-memory File: the crash-point sweeps truncate and
// re-open hundreds of stores, which would be pointlessly slow on disk.
type memFile struct {
	b     []byte
	syncs int
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(m.b)) {
		m.b = append(m.b, make([]byte, need-int64(len(m.b)))...)
	}
	return copy(m.b[off:], p), nil
}

func (m *memFile) Truncate(size int64) error {
	if size > int64(len(m.b)) {
		m.b = append(m.b, make([]byte, size-int64(len(m.b)))...)
		return nil
	}
	m.b = m.b[:size]
	return nil
}

func (m *memFile) Sync() error { m.syncs++; return nil }

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	if off != 0 || whence != io.SeekEnd {
		return 0, errors.New("memFile: only Seek(0, End)")
	}
	return int64(len(m.b)), nil
}

// decodeStore decompresses the whole container a memFile holds.
func decodeStore(t *testing.T, m *memFile) ([]float32, []int) {
	t.Helper()
	recon, dims, err := Decompress(m.b)
	if err != nil {
		t.Fatalf("decode store: %v", err)
	}
	return recon, dims
}

// appendPlanes grows the store with vals through an OpenAppend writer.
func appendPlanes(t *testing.T, m *memFile, vals []float32, opt ...Option) {
	t.Helper()
	w, err := OpenAppend(m, opt...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAppendGrowsV5BackendStore(t *testing.T) {
	dims := []int{17, 8, 9}
	data, _ := genField(t, "miranda", dims)
	ps := 8 * 9
	eb := cuszhi.AbsEB(data, 1e-3)
	// Seed store: first 10 planes (chunks of 4, 4, 2 — the short last chunk
	// becomes a short *interior* chunk once the appends land after it).
	m := &memFile{b: writeV4(t, data[:10*ps], []int{10, 8, 9}, eb, 4, WithMode("szx"))}
	baseline, _ := decodeStore(t, m)

	appendPlanes(t, m, data[10*ps:])

	recon, gotDims := decodeStore(t, m)
	if gotDims[0] != 17 {
		t.Fatalf("dims after append = %v", gotDims)
	}
	if !metrics.WithinBound(data, recon, eb) {
		t.Fatal("appended store reconstruction out of bound")
	}
	// The pre-append chunks were untouched, so their reconstruction is
	// bit-identical.
	for i, v := range baseline {
		if recon[i] != v {
			t.Fatalf("pre-append value %d changed: %v vs %v", i, recon[i], v)
		}
	}
	r, err := OpenReaderAt(m, int64(len(m.b)))
	if err != nil {
		t.Fatalf("appended store not seekable: %v", err)
	}
	if r.Version() != 5 || r.NumChunks() != 5 {
		t.Fatalf("version %d, %d chunks (want v5, 5 chunks: 4+4+2+4+3)", r.Version(), r.NumChunks())
	}
	if hist := r.CodecHistogram(); hist["szx"] != 5 {
		t.Fatalf("codec histogram = %v, want szx×5 (append continued the store codec)", hist)
	}
	if m.syncs == 0 {
		t.Fatal("seal never fsynced")
	}
}

func TestOpenAppendContinuesV4Assembly(t *testing.T) {
	dims := []int{12, 6, 6}
	data, _ := genField(t, "nyx", dims)
	ps := 36
	eb := cuszhi.AbsEB(data, 1e-2)
	m := &memFile{b: writeV4(t, data[:8*ps], []int{8, 6, 6}, eb, 4, WithMode(cuszhi.ModeTP))}

	appendPlanes(t, m, data[8*ps:]) // no mode: must continue hi-tp from the frames

	recon, gotDims := decodeStore(t, m)
	if gotDims[0] != 12 || !metrics.WithinBound(data, recon, eb) {
		t.Fatalf("append decode: dims %v", gotDims)
	}
	rec, err := CheckStore(m)
	if err != nil || !rec.Sealed() {
		t.Fatalf("store not sealed after append: %+v, %v", rec, err)
	}
	if rec.Header.Version != 4 {
		t.Fatalf("version changed to %d", rec.Header.Version)
	}
	// All frames must still carry hi-tp's mode byte.
	for i, mode := range rec.Modes {
		if mode != core.CodecMode(core.HiTP()) {
			t.Fatalf("frame %d mode %#x is not hi-tp", i, mode)
		}
	}
}

func TestOpenAppendEmptyCloseKeepsStoreBytes(t *testing.T) {
	dims := []int{9, 5, 5}
	data, _ := genField(t, "jhtdb", dims)
	blob := writeV4(t, data, dims, 0.05, 4)
	m := &memFile{b: append([]byte(nil), blob...)}
	appendPlanes(t, m, nil) // open + close, nothing added
	if !bytes.Equal(m.b, blob) {
		t.Fatalf("no-op append changed the store: %d vs %d bytes", len(m.b), len(blob))
	}
}

func TestOpenAppendModeValidation(t *testing.T) {
	dims := []int{8, 5, 5}
	data, _ := genField(t, "nyx", dims)
	v4 := writeV4(t, data, dims, 0.05, 4) // hi-cr, format v4

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"auto needs v5", []Option{WithAutoMode()}},
		{"backend codec needs v5", []Option{WithMode("szx")}},
		{"unknown mode", []Option{WithMode("no-such-codec")}},
	} {
		m := &memFile{b: append([]byte(nil), v4...)}
		if _, err := OpenAppend(m, tc.opts...); err == nil {
			t.Errorf("%s: OpenAppend accepted", tc.name)
		} else if !bytes.Equal(m.b, v4) {
			t.Errorf("%s: rejected open modified the store", tc.name)
		}
	}
}

func TestOpenAppendModeOverrideMixesV5(t *testing.T) {
	dims := []int{12, 5, 5}
	data, _ := genField(t, "miranda", dims)
	ps := 25
	eb := cuszhi.AbsEB(data, 1e-3)
	m := &memFile{b: writeV4(t, data[:6*ps], []int{6, 5, 5}, eb, 3, WithMode("szp"))}

	// Explicit assembly override on a v5 store: new chunks are hi-cr.
	appendPlanes(t, m, data[6*ps:9*ps], WithMode(cuszhi.ModeCR))
	// Re-open with no mode: the store now mixes codecs, so the writer must
	// continue adaptively rather than pick one side.
	appendPlanes(t, m, data[9*ps:])

	recon, gotDims := decodeStore(t, m)
	if gotDims[0] != 12 || !metrics.WithinBound(data, recon, eb) {
		t.Fatalf("mixed-codec append decode failed: dims %v", gotDims)
	}
	r, err := OpenReaderAt(m, int64(len(m.b)))
	if err != nil {
		t.Fatal(err)
	}
	hist := r.CodecHistogram()
	if hist["szp"] != 2 || hist["hi-cr"] < 1 {
		t.Fatalf("codec histogram = %v, want szp×2 plus hi-cr chunks", hist)
	}
}

// TestOpenAppendAutoPolicy: OpenAppend resolves its mode and selection
// policy like NewWriter — a misspelled policy or a policy without auto
// mode is refused, and a "throughput" session ranks exactly as a fresh
// "throughput" writer does on the same planes.
func TestOpenAppendAutoPolicy(t *testing.T) {
	dims := []int{40, 16, 16}
	ps := 16 * 16
	data := mixedField(dims)
	eb := cuszhi.AbsEB(data, 1e-2) // noise shards: szp within 15% of hi-cr
	seed := writeV4(t, data[:8*ps], []int{8, 16, 16}, eb, 4, WithAutoMode())

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"unknown policy", []Option{WithAutoMode(), WithAutoPolicy("bogus")}},
		{"policy without auto mode", []Option{WithMode(cuszhi.ModeCR), WithAutoPolicy("throughput")}},
	} {
		m := &memFile{b: append([]byte(nil), seed...)}
		if _, err := OpenAppend(m, tc.opts...); err == nil {
			t.Errorf("%s: OpenAppend accepted", tc.name)
		} else if !bytes.Equal(m.b, seed) {
			t.Errorf("%s: rejected open modified the store", tc.name)
		}
	}

	// The appended planes go through a "throughput" append session and a
	// fresh "throughput" writer; their per-shard picks must agree.
	more := data[8*ps:]
	m := &memFile{b: append([]byte(nil), seed...)}
	aw, err := OpenAppend(m, WithAutoMode(), WithAutoPolicy("throughput"))
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.WriteValues(more); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	picks := func(sels []AutoSelection, planeOff int) []string {
		var out []string
		for _, s := range sels {
			out = append(out, fmt.Sprintf("%d+%d:%s:%d", s.PlaneOff-planeOff, s.Planes, s.Codec, s.Bytes))
		}
		return out
	}
	got := picks(aw.AutoSelections(), 8)
	fresh := func(policy string) []string {
		w, err := NewWriter(io.Discard, []int{dims[0] - 8, 16, 16}, eb,
			WithAutoMode(), WithAutoPolicy(policy), WithChunkPlanes(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(more); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return picks(w.AutoSelections(), 0)
	}
	want := fresh("throughput")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("append session picks %v, fresh throughput writer picks %v", got, want)
	}
	// The field must make the policy matter, or the comparison proves nothing.
	if best := fresh("best-ratio"); fmt.Sprint(best) == fmt.Sprint(want) {
		t.Fatalf("throughput and best-ratio pick alike (%v); the test field needs a tie-breaking shard", want)
	}
}

// TestCrashPointPropertyV5 is the acceptance sweep: a reference v5 stream
// killed at EVERY byte offset must repair to a decodable container holding
// exactly the CRC-complete prefix chunks, and appending the missing planes
// to the repaired store must reproduce the full field.
func TestCrashPointPropertyV5(t *testing.T) {
	dims := []int{13, 4, 5}
	ps := 20
	data, _ := genField(t, "miranda", dims)
	eb := cuszhi.AbsEB(data, 1e-3)
	blob := writeV4(t, data, dims, eb, 3, WithMode("szx")) // chunks: 3,3,3,3,1
	intact, _, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
	if err != nil || !ref.Sealed() {
		t.Fatalf("reference container does not scan sealed: %v", err)
	}
	// frameEnd[i] = first byte past frame i; a kill at offset k completed
	// exactly the frames with frameEnd <= k.
	frameEnd := make([]int64, len(ref.Entries))
	for i := range ref.Entries {
		if i+1 < len(ref.Entries) {
			frameEnd[i] = ref.Entries[i+1].FrameOff
		} else {
			frameEnd[i] = ref.FramesEnd
		}
	}
	planesAt := func(k int64) int {
		p := 0
		for i, e := range ref.Entries {
			if frameEnd[i] <= k {
				p += e.Planes
			}
		}
		return p
	}
	step := 1
	if testing.Short() {
		step = 17
	}
	for cut := 1; cut < len(blob); cut += step {
		m := &memFile{b: append([]byte(nil), blob[:cut]...)}
		rec, err := Repair(m)
		want := planesAt(int64(cut))
		if err != nil {
			// Only a store with no complete chunk (or a torn global header)
			// is beyond repair — and it must be left unmodified.
			if want != 0 {
				t.Fatalf("cut %d: repair failed with %d planes recoverable: %v", cut, want, err)
			}
			if len(m.b) != cut {
				t.Fatalf("cut %d: failed repair modified the store", cut)
			}
			continue
		}
		if rec.Planes != want {
			t.Fatalf("cut %d: recovered %d planes, want %d", cut, rec.Planes, want)
		}
		recon, gotDims, err := Decompress(m.b)
		if err != nil || gotDims[0] != want {
			t.Fatalf("cut %d: repaired store decode: %v (dims %v, want %d planes)", cut, err, gotDims, want)
		}
		// Exactly the CRC-complete prefix: bit-identical to the intact
		// container's reconstruction of those planes.
		for i, v := range recon {
			if v != intact[i] {
				t.Fatalf("cut %d: repaired value %d = %v, intact %v", cut, i, v, intact[i])
			}
		}
		if _, err := OpenReaderAt(m, int64(len(m.b))); err != nil {
			t.Fatalf("cut %d: repaired store not seekable: %v", cut, err)
		}
		// Append the planes the crash lost; the rebuilt store must decode
		// to the full field: the recovered prefix bit-identical, the
		// re-compressed remainder within the bound.
		appendPlanes(t, m, data[want*ps:])
		full, fullDims := decodeStore(t, m)
		if fullDims[0] != dims[0] {
			t.Fatalf("cut %d: append rebuilt %v planes, want %v", cut, fullDims, dims)
		}
		for i := 0; i < want*ps; i++ {
			if full[i] != intact[i] {
				t.Fatalf("cut %d: appended store changed recovered value %d", cut, i)
			}
		}
		if !metrics.WithinBound(data, full, eb) {
			t.Fatalf("cut %d: rebuilt store out of bound", cut)
		}
	}
}

func TestOpenAppendRepairsTornStoreDirectly(t *testing.T) {
	dims := []int{11, 6, 6}
	ps := 36
	data, _ := genField(t, "nyx", dims)
	eb := cuszhi.AbsEB(data, 1e-2)
	blob := writeV4(t, data, dims, eb, 4, WithMode("szp"))
	rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Kill inside the last frame: 8 planes (two full chunks) survive.
	cut := rec.Entries[2].FrameOff + 7
	m := &memFile{b: append([]byte(nil), blob[:cut]...)}
	w, err := OpenAppend(m) // no Repair first: open itself truncates
	if err != nil {
		t.Fatal(err)
	}
	if w.Planes() != 8 {
		t.Fatalf("recovered %d planes, want 8", w.Planes())
	}
	if err := w.WriteValues(data[8*ps:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recon, gotDims := decodeStore(t, m)
	if gotDims[0] != 11 || !metrics.WithinBound(data, recon, eb) {
		t.Fatalf("rebuilt store decode failed: dims %v", gotDims)
	}
}

// TestHeaderShiftOnGrowth drives dims[0] and the chunk count past their
// original uvarint widths, forcing the one-time frame relocation, then
// appends again to prove the widened header absorbs all further growth.
func TestHeaderShiftOnGrowth(t *testing.T) {
	dims := []int{3, 2, 2}
	ps := 4
	field := make([]float32, 150*ps)
	for i := range field {
		field[i] = float32(i%19) * 0.5
	}
	m := &memFile{b: writeV4(t, field[:3*ps], dims, 0.01, 1, WithMode("szx"))}
	rec0, err := CheckStore(m)
	if err != nil {
		t.Fatal(err)
	}

	appendPlanes(t, m, field[3*ps:140*ps]) // 140 planes, 140 chunks: 2-byte uvarints now

	rec1, err := CheckStore(m)
	if err != nil || !rec1.Sealed() {
		t.Fatalf("store not sealed after shifting append: %v", err)
	}
	if rec1.HeaderLen <= rec0.HeaderLen {
		t.Fatalf("header never widened: %d -> %d", rec0.HeaderLen, rec1.HeaderLen)
	}
	recon, gotDims := decodeStore(t, m)
	if gotDims[0] != 140 {
		t.Fatalf("dims after shift = %v", gotDims)
	}
	if !metrics.WithinBound(field[:140*ps], recon, 0.01) {
		t.Fatal("post-shift reconstruction out of bound")
	}

	appendPlanes(t, m, field[140*ps:]) // the widened header must absorb this

	rec2, err := CheckStore(m)
	if err != nil || !rec2.Sealed() {
		t.Fatalf("store not sealed after second append: %v", err)
	}
	if rec2.HeaderLen != rec1.HeaderLen {
		t.Fatalf("header shifted twice: %d -> %d", rec1.HeaderLen, rec2.HeaderLen)
	}
	if _, err := OpenReaderAt(m, int64(len(m.b))); err != nil {
		t.Fatalf("shifted store not seekable: %v", err)
	}
}

func TestRepairRejectsChunklessStore(t *testing.T) {
	dims := []int{8, 5, 5}
	data, _ := genField(t, "nyx", dims)
	blob := writeV4(t, data, dims, 0.05, 4)
	rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Kill inside the first frame: a header but no complete chunk.
	cut := rec.Entries[0].FrameOff + 5
	m := &memFile{b: append([]byte(nil), blob[:cut]...)}
	if _, err := Repair(m); err == nil {
		t.Fatal("Repair sealed a store with no complete chunks")
	}
	if int64(len(m.b)) != cut {
		t.Fatal("failed Repair modified the store")
	}
}

// capturingFailSink keeps what it accepted and fails every write after the
// first n, so tests can inspect exactly what a half-dead sink received.
type capturingFailSink struct {
	buf   bytes.Buffer
	n     int
	calls int
}

func (s *capturingFailSink) Write(p []byte) (int, error) {
	s.calls++
	if s.calls > s.n {
		return 0, io.ErrClosedPipe
	}
	return s.buf.Write(p)
}

// TestCloseWritesNoFooterOverBrokenTail locks the satellite bugfix
// contract: once the flusher has hit a sink error, Close must not lay a
// valid chunk-index footer over the broken tail — a parsing footer on a
// bad stream would defeat the footer-vs-frames cross-check.
func TestCloseWritesNoFooterOverBrokenTail(t *testing.T) {
	dims := []int{16, 6, 6}
	data, _ := genField(t, "miranda", dims)
	// n=1 accepts the header only; n=3 dies mid-frames; n=5 dies on the
	// footer write itself (4 chunk frames + header = 5 writes succeed).
	for _, n := range []int{1, 3, 5} {
		sink := &capturingFailSink{n: n}
		w, err := NewWriter(sink, dims, 0.05, WithChunkPlanes(4), WithMode(cuszhi.ModeCR))
		if err != nil {
			t.Fatal(err)
		}
		werr := w.WriteValues(data)
		cerr := w.Close()
		if werr == nil && cerr == nil {
			t.Fatalf("n=%d: sink failure never surfaced", n)
		}
		got := sink.buf.Bytes()
		if len(got) >= core.IndexTailLen {
			if _, err := core.ParseChunkIndexTail(got[len(got)-core.IndexTailLen:]); err == nil {
				t.Fatalf("n=%d: Close wrote a parseable footer tail over a broken stream", n)
			}
		}
		if _, err := OpenReaderAt(bytes.NewReader(got), int64(len(got))); err == nil {
			t.Fatalf("n=%d: broken stream still opens seekably", n)
		}
	}
}

func TestWriterDoubleCloseReturnsFirstError(t *testing.T) {
	dims := []int{10, 4, 4}
	data, _ := genField(t, "nyx", dims)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, 0.05, WithChunkPlanes(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data[:5*16]); err != nil { // half the field
		t.Fatal(err)
	}
	first := w.Close()
	if first == nil {
		t.Fatal("Close of a half-fed writer succeeded")
	}
	if second := w.Close(); second == nil || second.Error() != first.Error() {
		t.Fatalf("second Close = %v, want the first error (%v)", second, first)
	}
	if err := w.WriteValues(data[:16]); err == nil {
		t.Fatal("Write after failed Close succeeded")
	}
	if _, err := w.Write([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("byte Write after failed Close succeeded")
	}
}

// TestWriterConcurrentClose races Closes against each other (run under
// -race): exactly one may do the shutdown, every call must report the
// writer's first error, and the pool must not be double-closed.
func TestWriterConcurrentClose(t *testing.T) {
	dims := []int{12, 4, 4}
	data, _ := genField(t, "miranda", dims)
	t.Run("clean", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, dims, 0.05, WithChunkPlanes(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(data); err != nil {
			t.Fatal(err)
		}
		errs := closeConcurrently(w, 4)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("concurrent Close %d: %v", i, err)
			}
		}
		if _, _, err := Decompress(buf.Bytes()); err != nil {
			t.Fatalf("container after racing Closes: %v", err)
		}
	})
	t.Run("failing", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, dims, 0.05, WithChunkPlanes(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteValues(data[:3*16]); err != nil {
			t.Fatal(err)
		}
		for i, err := range closeConcurrently(w, 4) {
			if err == nil {
				t.Fatalf("concurrent Close %d of a half-fed writer returned nil", i)
			}
		}
	})
}

func closeConcurrently(w *Writer, n int) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Close()
		}(i)
	}
	wg.Wait()
	return errs
}

// TestScanIndexRejectsTruncatedFinalFrame covers the v2/v3 scan-built
// index fallback against a store whose last frame is cut short — only
// well-formed index-less files were exercised before.
func TestScanIndexRejectsTruncatedFinalFrame(t *testing.T) {
	dims := []int{12, 6, 6}
	data, _ := genField(t, "jhtdb", dims)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"v2", []Option{WithIndex(false)}},
		{"v3", []Option{WithIndex(false), WithRelativeEB()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := writeV4(t, data, dims, 1e-3, 4, tc.opts...)
			if v, _ := core.SniffVersion(blob); v != 2 && v != 3 {
				t.Fatalf("fixture is v%d, want v2/v3", v)
			}
			if _, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob))); err != nil {
				t.Fatalf("intact %s container: %v", tc.name, err)
			}
			for _, cut := range []int{1, 7, 33} {
				short := blob[:len(blob)-cut]
				if _, err := OpenReaderAt(bytes.NewReader(short), int64(len(short))); err == nil {
					t.Fatalf("final frame truncated by %d still opened", cut)
				}
			}
			// Cut a whole frame plus its tail: the plane total no longer
			// matches the header, which the scan must notice.
			rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			short := blob[:rec.Entries[len(rec.Entries)-1].FrameOff]
			if _, err := OpenReaderAt(bytes.NewReader(short), int64(len(short))); err == nil {
				t.Fatal("missing final frame still opened")
			}
		})
	}
}

// TestOpenReaderAtHostileTails pins the short-file and wild-backpointer
// paths of the v4 open: every case must fail with ErrCorrupt, never panic
// or mis-slice.
func TestOpenReaderAtHostileTails(t *testing.T) {
	dims := []int{8, 5, 5}
	data, _ := genField(t, "nyx", dims)
	blob := writeV4(t, data, dims, 0.05, 4)
	open := func(b []byte) error {
		_, err := OpenReaderAt(bytes.NewReader(b), int64(len(b)))
		return err
	}
	t.Run("shorter than the fixed tail", func(t *testing.T) {
		for size := 0; size <= core.IndexTailLen; size++ {
			if err := open(blob[:size]); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("size %d: err = %v, want ErrCorrupt", size, err)
			}
		}
	})
	t.Run("backpointer before the header", func(t *testing.T) {
		for _, off := range []uint64{0, 3} {
			bad := append([]byte(nil), blob...)
			putUint64(bad[len(bad)-core.IndexTailLen:], off)
			if err := open(bad); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("backptr %d: err = %v, want ErrCorrupt", off, err)
			}
		}
	})
	t.Run("backpointer absurdly large", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		putUint64(bad[len(bad)-core.IndexTailLen:], 1<<63)
		if err := open(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("tail only", func(t *testing.T) {
		tail := append([]byte(nil), blob[len(blob)-core.IndexTailLen:]...)
		if err := open(tail); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// TestOpenAppendOnOsFile exercises the disk path end to end: *os.File
// satisfies File, and a crash simulated by truncating on disk repairs and
// appends the same way the in-memory sweeps do.
func TestOpenAppendOnOsFile(t *testing.T) {
	dims := []int{10, 5, 5}
	ps := 25
	data, _ := genField(t, "miranda", dims)
	eb := cuszhi.AbsEB(data, 1e-3)
	blob := writeV4(t, data, dims, eb, 4, WithMode("szx"))
	path := t.TempDir() + "/store.cszh"
	if err := os.WriteFile(path, blob[:len(blob)-9], 0o644); err != nil { // torn footer
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := OpenAppend(f)
	if err != nil {
		t.Fatal(err)
	}
	if w.Planes() != 10 {
		t.Fatalf("recovered %d planes, want all 10 (only the footer was torn)", w.Planes())
	}
	if err := w.WriteValues(data[:2*ps]); err != nil { // grow by 2 planes
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recon, gotDims, err := Decompress(grown)
	if err != nil || gotDims[0] != 12 {
		t.Fatalf("on-disk store decode: %v (dims %v)", err, gotDims)
	}
	want := append(append([]float32(nil), data...), data[:2*ps]...)
	if !metrics.WithinBound(want, recon, eb) {
		t.Fatal("on-disk rebuilt store out of bound")
	}
}

// FuzzOpenAppend feeds arbitrary bytes to the recovery scan + append
// machinery: it must never panic, and whenever it claims success the
// resulting store must actually decode.
func FuzzOpenAppend(f *testing.F) {
	dims := []int{7, 3, 3}
	data := make([]float32, 7*9)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, 0.01, WithChunkPlanes(2), WithMode("szx"))
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	blob := buf.Bytes()
	f.Add(blob)
	f.Add(blob[:len(blob)-5])          // torn footer
	f.Add(blob[:len(blob)/2])          // torn frames
	f.Add(blob[:11])                   // torn header
	f.Add(bytes.Repeat([]byte{0}, 40)) // not a container
	hostile := append([]byte(nil), blob...)
	putUint64(hostile[len(hostile)-core.IndexTailLen:], uint64(len(blob)+999))
	f.Add(hostile) // backpointer past EOF
	// Bit-rotted sealed stores: a flipped byte inside each frame's interior
	// (recovery must stop at the rotten frame, not resume over it) and one
	// inside the footer body (recovery must fall back to the frame scan).
	if rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob))); err == nil {
		flip := func(at int64) []byte {
			mut := append([]byte(nil), blob...)
			mut[at] ^= 0x81
			return mut
		}
		for i, e := range rec.Entries {
			end := rec.FramesEnd
			if i+1 < len(rec.Entries) {
				end = rec.Entries[i+1].FrameOff
			}
			f.Add(flip((e.FrameOff + end) / 2))
		}
		f.Add(flip(rec.FramesEnd + 2))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Recovery trusts frame CRCs, so hostile bytes can fabricate a
		// "valid" chunk whose payload no codec accepts — repair will seal
		// it and decode will still refuse it. The invariants that must hold
		// for ARBITRARY input: never panic, a claimed seal really scans
		// sealed, and whenever the recovered prefix decoded, the appended
		// store decodes too.
		rm := &memFile{b: append([]byte(nil), b...)}
		prefixDecodes := false
		if _, err := Repair(rm); err == nil {
			if rec, err := CheckStore(rm); err != nil || !rec.Sealed() {
				t.Fatalf("Repair left an unsealed store: %+v, %v", rec, err)
			}
			_, _, derr := Decompress(rm.b)
			prefixDecodes = derr == nil
		}
		m := &memFile{b: append([]byte(nil), b...)}
		w, err := OpenAppend(m)
		if err != nil {
			return
		}
		planes := w.Planes()
		// The fuzzer mutates dims, so a whole plane may be any size; feed a
		// fixed batch and let Close decide whether it tiles.
		werr := w.WriteValues(make([]float32, 9))
		if cerr := w.Close(); werr != nil || cerr != nil {
			return // rejected input; just must not panic
		}
		if rec, err := CheckStore(m); err != nil || !rec.Sealed() {
			t.Fatalf("Close left an unsealed store: %+v, %v", rec, err)
		}
		recon, gotDims, derr := Decompress(m.b)
		if derr != nil {
			if planes == 0 || prefixDecodes {
				t.Fatalf("append sealed an undecodable store: %v", derr)
			}
			return // inherited a CRC-valid-but-garbage chunk: decode may refuse
		}
		want := 1
		for _, d := range gotDims {
			want *= d
		}
		if len(recon) != want {
			t.Fatalf("sealed store decodes %d values for dims %v", len(recon), gotDims)
		}
	})
}
