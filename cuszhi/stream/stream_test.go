package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/metrics"
)

func genField(t testing.TB, name string, dims []int) ([]float32, []int) {
	t.Helper()
	data, gotDims, err := cuszhi.GenerateDataset(name, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	return data, gotDims
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dims := []int{24, 20, 20}
	data, _ := genField(t, "miranda", dims)
	absEB := cuszhi.AbsEB(data, 1e-3)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB,
		WithMode(cuszhi.ModeTP), WithChunkPlanes(7), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// Feed as bytes through io.Copy with an awkward chunk size to exercise
	// partial-value buffering.
	raw := valueBytes(data)
	if _, err := io.CopyBuffer(w, bytes.NewReader(raw), make([]byte, 1013)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dims(); len(got) != 3 || got[0] != 24 || got[1] != 20 || got[2] != 20 {
		t.Fatalf("dims = %v", got)
	}
	if r.EB() != absEB {
		t.Fatalf("eb = %v, want %v", r.EB(), absEB)
	}
	recon, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != len(data) {
		t.Fatalf("len = %d, want %d", len(recon), len(data))
	}
	if !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("streamed reconstruction out of bound")
	}
	// One more value than the field holds must be rejected.
	if _, err := io.ReadFull(r, make([]byte, 1)); err != io.EOF {
		t.Fatalf("read past end: %v", err)
	}
}

func TestWriterWriteValues(t *testing.T) {
	dims := []int{10, 8, 8}
	data, _ := genField(t, "nyx", dims)
	absEB := cuszhi.AbsEB(data, 1e-2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, WithMode(cuszhi.ModeCR), WithChunkPlanes(4))
	if err != nil {
		t.Fatal(err)
	}
	// Two uneven slices spanning a shard boundary.
	if err := w.WriteValues(data[:333]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data[333:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recon, gotDims, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gotDims[0] != 10 || !metrics.WithinBound(data, recon, absEB) {
		t.Fatalf("dims %v / bound check failed", gotDims)
	}
}

func TestWriterErrors(t *testing.T) {
	dims := []int{4, 4, 4}
	// Auto mode needs the index footer for its per-chunk codec IDs.
	if _, err := NewWriter(io.Discard, dims, 0.1, WithAutoMode(), WithIndex(false)); err == nil {
		t.Fatal("ModeAuto without the index footer accepted")
	}
	if _, err := NewWriter(io.Discard, dims, -1); err == nil {
		t.Fatal("negative eb accepted")
	}
	if _, err := NewWriter(io.Discard, []int{}, 0.1); err == nil {
		t.Fatal("empty dims accepted")
	}

	// Too few values.
	w, err := NewWriter(io.Discard, dims, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(make([]float32, 17)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short field closed without error")
	}

	// Too many values: the error must be sticky through Close, so a
	// caller that only checks Close (gzip.Writer style) still sees it.
	w, err = NewWriter(io.Discard, dims, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(make([]float32, 65)); err == nil {
		t.Fatal("overlong field accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the overlong-field error")
	}

	// Trailing partial value.
	w, err = NewWriter(io.Discard, dims, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 4*64-1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("partial trailing value closed without error")
	}
}

// TestWriteAccountingOverfeedPartialPath locks Write's consumed-byte
// accounting on the path where a buffered partial value completes and is
// then rejected (overfeed): the completing bytes must be reported
// unconsumed, so the total consumed across calls never exceeds the field
// size plus a pending partial (regression: the old code reported the
// rejected value's bytes as consumed and left them queued for replay).
func TestWriteAccountingOverfeedPartialPath(t *testing.T) {
	dims := []int{4, 4, 4} // 64 values = 256 bytes
	w, err := NewWriter(io.Discard, dims, 0.1, WithMode(cuszhi.ModeTP))
	if err != nil {
		t.Fatal(err)
	}
	raw := valueBytes(make([]float32, 66))
	// The whole field plus 2 bytes of a 65th value: all consumed (the
	// stray bytes wait in the partial buffer).
	n1, err := w.Write(raw[:258])
	if err != nil || n1 != 258 {
		t.Fatalf("Write #1 = (%d, %v), want (258, nil)", n1, err)
	}
	// Completing the 65th value overfeeds the declared dims. The value is
	// rejected, so none of these bytes may count as consumed.
	n2, err := w.Write(raw[258:262])
	if err == nil {
		t.Fatal("overfeed through the partial path accepted")
	}
	if n2 != 0 {
		t.Fatalf("Write #2 reported %d bytes consumed for a rejected value", n2)
	}
	if total := n1 + n2; total > 4*64+3 {
		t.Fatalf("consumed %d bytes of a %d-byte field (+3 partial max)", total, 4*64)
	}
	// The error stays sticky through further writes and Close.
	if n, err := w.Write(raw[262:]); err == nil || n != 0 {
		t.Fatalf("Write after overfeed = (%d, %v)", n, err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the overfeed error")
	}
}

// TestWriteAccountingBatchOverfeed: when one big Write overfeeds mid-batch,
// the count must cover exactly the prefix that was absorbed — not zero.
func TestWriteAccountingBatchOverfeed(t *testing.T) {
	dims := []int{4, 4, 4}
	w, err := NewWriter(io.Discard, dims, 0.1, WithMode(cuszhi.ModeTP))
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Write(valueBytes(make([]float32, 100))) // 64 fit, 36 overflow
	if err == nil {
		t.Fatal("overfeed accepted")
	}
	if n != 4*64 {
		t.Fatalf("Write = %d bytes consumed, want %d (the absorbed prefix)", n, 4*64)
	}
	w.Close()
}

func TestWriterCloseErrorIsSticky(t *testing.T) {
	w, err := NewWriter(io.Discard, []int{4, 4, 4}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(make([]float32, 17)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short field closed without error")
	}
	// A deferred/retried Close must keep reporting the failure.
	if err := w.Close(); err == nil {
		t.Fatal("second Close swallowed the error")
	}
}

func TestReaderCloseAbandonsEarly(t *testing.T) {
	dims := []int{30, 10, 10}
	data, _ := genField(t, "nyx", dims)
	blob, err := CompressAbs(data, dims, 0.1, WithChunkPlanes(2)) // 15 chunks
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		r, err := NewReader(bytes.NewReader(blob), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		// Read a prefix only, then abandon.
		if _, err := io.ReadFull(r, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(make([]byte, 8)); err == nil || err == io.EOF {
			t.Fatalf("Read after Close: err = %v, want a non-EOF error", err)
		}
	}
	// Feeders, workers and drainers must all wind down rather than leak.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after abandoning 20 readers", before, runtime.NumGoroutine())
}

// TestReaderCloseWithoutRead abandons readers before a single Read, while
// the feeder may still be blocked submitting into a full backlog — the
// harshest mid-stream abandonment. Feeders, workers and drainers must all
// wind down rather than leak.
func TestReaderCloseWithoutRead(t *testing.T) {
	dims := []int{40, 8, 8}
	data, _ := genField(t, "miranda", dims)
	blob, err := CompressAbs(data, dims, 0.1, WithChunkPlanes(1)) // 40 chunks
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for trial := 0; trial < 25; trial++ {
		r, err := NewReader(bytes.NewReader(blob), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// Close is idempotent and Read stays dead.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(make([]byte, 4)); err == nil || err == io.EOF {
			t.Fatalf("Read after immediate Close: err = %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after abandoning 25 unread readers", before, runtime.NumGoroutine())
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after--
	return len(p), nil
}

func TestWriterPropagatesSinkError(t *testing.T) {
	dims := []int{16, 8, 8}
	data, _ := genField(t, "nyx", dims)
	w, err := NewWriter(&failingWriter{after: 1}, dims, 0.5,
		WithMode(cuszhi.ModeTP), WithChunkPlanes(2))
	if err != nil {
		t.Fatal(err)
	}
	werr := w.WriteValues(data)
	if cerr := w.Close(); werr == nil && cerr == nil {
		t.Fatal("sink failure never surfaced")
	}
}

func TestReaderReadsV1Blob(t *testing.T) {
	dims := []int{10, 10, 10}
	data, _ := genField(t, "jhtdb", dims)
	blob, err := cuszhi.Compress(data, dims, 1e-3) // one-shot v1
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	recon, err := r.ReadAllValues()
	if err != nil {
		t.Fatal(err)
	}
	absEB := cuszhi.AbsEB(data, 1e-3)
	if len(recon) != 1000 || !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("v1 blob via stream.Reader failed bound check")
	}
	if d := r.Dims(); d[0] != 10 {
		t.Fatalf("dims = %v", d)
	}
}

func TestOneShotDecompressReadsStreamOutput(t *testing.T) {
	dims := []int{12, 10, 10}
	data, _ := genField(t, "hurricane", dims)
	absEB := cuszhi.AbsEB(data, 1e-3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dims, absEB, WithChunkPlanes(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The public one-shot decoder must read the streamed container.
	recon, gotDims, err := cuszhi.Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gotDims[0] != 12 || !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("one-shot decode of streamed container failed")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("abc"),
		[]byte("not a container at all"),
		append([]byte("cSZh\x02\x00"), 0xff, 0xff, 0xff, 0xff),
		// Wrong magic but 5th byte 0x01: must be refused at header time,
		// not slurped whole as a "v1 blob".
		append([]byte("XXXX\x01"), make([]byte, 4096)...),
	} {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			continue
		}
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("garbage %q read without error", raw)
		}
	}
}

// blockingReader yields its data then blocks (like an idle socket) instead
// of returning EOF; Read must still complete once the container is done.
type blockingReader struct {
	data  []byte
	block chan struct{}
}

func (b *blockingReader) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		<-b.block // held open by the "producer"
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func TestReaderTrailingByteContract(t *testing.T) {
	dims := []int{8, 6, 6}
	data, _ := genField(t, "nyx", dims)
	blob, err := CompressAbs(data, dims, 0.1, WithChunkPlanes(3))
	if err != nil {
		t.Fatal(err)
	}
	// The one-shot decoder rejects trailing bytes: a blob is exactly one
	// container.
	dirty := append(append([]byte(nil), blob...), 0xde, 0xad)
	if _, _, err := Decompress(dirty); err == nil {
		t.Fatal("one-shot accepted trailing garbage")
	}
	// The streaming reader consumes exactly one container and reports EOF
	// without probing past it — so it must finish even when the source
	// never returns EOF (socket held open by the producer).
	src := &blockingReader{data: blob, block: make(chan struct{})}
	defer close(src.block)
	r, err := NewReader(src, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		recon, err := r.ReadAllValues()
		if err == nil && len(recon) != 8*6*6 {
			err = io.ErrShortBuffer
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reader hung waiting for EOF on an open stream")
	}
}

func TestReaderRejectsTruncatedStream(t *testing.T) {
	dims := []int{12, 8, 8}
	data, _ := genField(t, "nyx", dims)
	blob, err := CompressAbs(data, dims, 0.1, WithChunkPlanes(3))
	if err != nil {
		t.Fatal(err)
	}
	// A sequential Reader never reads the v4 footer, so cut inside the
	// last frame, which ends where the tail's backpointer says.
	framesEnd := binary.LittleEndian.Uint64(blob[len(blob)-core.IndexTailLen:])
	r, err := NewReader(bytes.NewReader(blob[:framesEnd-7]))
	if err != nil {
		return // refusing at header time is fine too
	}
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("truncated stream read without error")
	}
}
