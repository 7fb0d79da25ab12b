package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// TestBackendModeStreamRoundTrip drives every backend chunk codec through
// the streaming writer: WithMode(fzgpu|szp|szx) emits a format-v5
// container whose chunks all carry the backend's wire ID, and the
// sequential Reader, the one-shot decoder and the random-access ReaderAt
// reconstruct it identically.
func TestBackendModeStreamRoundTrip(t *testing.T) {
	dims := []int{16, 10, 10}
	data := make([]float32, 16*10*10)
	for i := range data {
		data[i] = float32(i%29)*0.5 + float32(i%7)
	}
	for _, mode := range cuszhi.BackendModes() {
		t.Run(string(mode), func(t *testing.T) {
			absEB := cuszhi.AbsEB(data, 1e-3)
			var buf bytes.Buffer
			w, err := NewWriter(&buf, dims, absEB, WithMode(mode), WithChunkPlanes(4), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteValues(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()

			info, err := cuszhi.Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != 5 || !info.HasIndex || info.NumChunks != 4 {
				t.Fatalf("info = %+v", info)
			}
			if info.ChunkCodecs[string(mode)] != 4 || len(info.ChunkCodecs) != 1 {
				t.Fatalf("histogram = %v", info.ChunkCodecs)
			}

			full, gotDims, err := cuszhi.Decompress(blob)
			if err != nil || gotDims[0] != 16 {
				t.Fatalf("one-shot decode: %v (dims %v)", err, gotDims)
			}
			if !metrics.WithinBound(data, full, absEB) {
				t.Fatal("reconstruction out of bound")
			}

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
					t.Fatalf("sequential decode diverges at %d", i)
				}
			}

			ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if hist := ra.CodecHistogram(); hist[string(mode)] != 4 {
				t.Fatalf("ReaderAt histogram = %v", hist)
			}
			// A window over backend-coded chunks decodes byte-exactly.
			ps := 10 * 10
			got, err := ra.ReadPlanes(nil, 5, 11)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != full[5*ps+i] {
					t.Fatalf("ReadPlanes diverges from full decode at %d", i)
				}
			}
		})
	}
}

// TestBackendModeRequiresIndex: backend modes record codec IDs in the v5
// footer, so disabling the index must be refused up front, like auto mode.
func TestBackendModeRequiresIndex(t *testing.T) {
	var buf bytes.Buffer
	_, err := NewWriter(&buf, []int{4, 4, 4}, 0.01, WithMode(cuszhi.ModeFzGPU), WithIndex(false))
	if err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewWriter(&buf, []int{4, 4, 4}, 0.01, WithMode("nope")); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestAutoModeBackendWinsShard engineers a field where a backend codec
// wins at least one shard (constant planes: szp/szx territory) while the
// smooth ramp half goes to an interpolation assembly — proving the widened
// candidate set reaches the stream's per-chunk selection.
func TestAutoModeBackendWinsShard(t *testing.T) {
	dims := []int{32, 12, 12}
	ps := 12 * 12
	data := make([]float32, 32*ps)
	for z := 0; z < 16; z++ {
		for i := 0; i < ps; i++ {
			y, x := i/12, i%12
			data[z*ps+i] = float32(z)*0.5 + float32(y)*0.25 + float32(x)*0.125
		}
	}
	// Planes 16..32 constant: a zero-delta bitmap (szp) or constant-block
	// (szx) stream costs a few bytes where every assembly pays Huffman
	// tables and anchor grids per shard.
	var buf bytes.Buffer
	absEB := cuszhi.AbsEB(data, 1e-3)
	w, err := NewWriter(&buf, dims, absEB, WithAutoMode(), WithChunkPlanes(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteValues(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	backendChunks := info.ChunkCodecs["fzgpu"] + info.ChunkCodecs["szp"] + info.ChunkCodecs["szx"]
	if backendChunks == 0 {
		t.Fatalf("no backend won a shard: %v", info.ChunkCodecs)
	}
	recon, _, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("mixed cusz+backend reconstruction out of bound")
	}
}

// buildMixedBackendV5 assembles a two-chunk fzgpu+szx container the way
// the fuzz seeds do, returning the blob and its index entries.
func buildMixedBackendV5(t *testing.T, dims []int, data []float32) ([]byte, []core.IndexEntry) {
	t.Helper()
	blob, err := core.AppendChunkedHeaderSized(nil, 5, dims, 0.05, false, dims[0]/2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := 1
	for _, d := range dims[1:] {
		ps *= d
	}
	names := []string{"fzgpu", "szx"}
	var entries []core.IndexEntry
	for i, off := 0, 0; off < dims[0]; i, off = i+1, off+dims[0]/2 {
		planes := dims[0] / 2
		cd, ok := core.CodecByName(names[i%2])
		if !ok {
			t.Fatal(names[i%2])
		}
		shard := data[off*ps : (off+planes)*ps]
		shardDims := append([]int{planes}, dims[1:]...)
		minV, maxV, _ := core.ShardRange(shard)
		payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, core.IndexEntry{FrameOff: int64(len(blob)), PlaneOff: off, Planes: planes, Codec: cd.ID()})
		blob = core.AppendChunkFrameV5(blob, cd, off, shardDims, minV, maxV, payload)
	}
	return core.AppendChunkIndexFooter(blob, 5, int64(len(blob)), entries), entries
}

// TestReaderAtCodecMismatchNamesCodecs: a footer whose entry claims a
// different (registered) codec than the frame must fail the covering read
// with an error naming both codecs — the index/frame cross-check message
// satellite.
func TestReaderAtCodecMismatchNamesCodecs(t *testing.T) {
	dims := []int{8, 6, 6}
	data := make([]float32, 8*6*6)
	for i := range data {
		data[i] = float32(i%17) * 0.25
	}
	blob, entries := buildMixedBackendV5(t, dims, data)
	if _, _, err := Decompress(blob); err != nil {
		t.Fatal(err)
	}
	framesEnd := int(binary.LittleEndian.Uint64(blob[len(blob)-core.IndexTailLen:]))
	lie := append([]core.IndexEntry(nil), entries...)
	lie[0].Codec = core.CodecSZp // registered, but not what the frame says
	bad := core.AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 5, int64(framesEnd), lie)

	ra, err := OpenReaderAt(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err) // the footer alone is self-consistent; open succeeds
	}
	_, err = ra.ReadPlanes(nil, 0, 2)
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	for _, name := range []string{"szp", "fzgpu"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("mismatch error does not name %s: %v", name, err)
		}
	}
}

// TestReaderCodecModeMismatchNamesCodec: the sequential Reader's frame
// validation must name the codec whose ID disagrees with the frame's
// codec-mode byte.
func TestReaderCodecModeMismatchNamesCodec(t *testing.T) {
	dims := []int{8, 6, 6}
	data := make([]float32, 8*6*6)
	for i := range data {
		data[i] = float32(i % 11)
	}
	blob, entries := buildMixedBackendV5(t, dims, data)
	// Frame 0 is fzgpu (mode byte 0); claiming cusz-l (a registered
	// assembly with a nonzero mode byte) trips the mode/ID cross-check.
	bad := append([]byte(nil), blob...)
	bad[int(entries[0].FrameOff)+5] = byte(core.CodecCuszL)
	r, err := NewReader(bytes.NewReader(bad))
	if err == nil {
		_, err = io.ReadAll(r)
		r.Close()
	}
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "cusz-l") {
		t.Fatalf("mismatch error does not name the claimed codec: %v", err)
	}
}
