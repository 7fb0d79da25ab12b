package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/bitio"
	"repro/internal/metrics"
)

func chunkedRoundTrip(t *testing.T, data []float32, dims []int, eb float64, opts Options, cp int) []byte {
	t.Helper()
	blob, err := CompressChunked(dev, data, dims, cp, v2Spec(opts, eb))
	if err != nil {
		t.Fatalf("%s cp=%d: CompressChunked: %v", opts.Name, cp, err)
	}
	recon, gotDims, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatalf("%s cp=%d: Decompress: %v", opts.Name, cp, err)
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			t.Fatalf("%s cp=%d: dims %v != %v", opts.Name, cp, gotDims, dims)
		}
	}
	if i := metrics.FirstViolation(data, recon, eb); i >= 0 {
		t.Fatalf("%s cp=%d: bound violated at %d: %v vs %v (eb=%v)",
			opts.Name, cp, i, data[i], recon[i], eb)
	}
	return blob
}

// optionsCodec adapts a custom Options assembly to the Codec interface
// without registering it. It has no wire ID, so it frames v2–v4 chunks only.
func optionsCodec(opts Options) Codec {
	return &assemblyCodec{name: opts.Name, newOpts: func() Options { return opts }}
}

// v2Spec encodes plain v2 chunks of opts under the absolute bound eb.
func v2Spec(opts Options, eb float64) EncodeSpec {
	return EncodeSpec{Version: 2, EB: eb, Codec: optionsCodec(opts)}
}

func rampField(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i%23) + 0.5*float32(i%7)
	}
	return data
}

func TestChunkedRoundTripAllModes(t *testing.T) {
	dims := []int{20, 12, 12}
	data := rampField(20 * 12 * 12)
	for _, opts := range allModes() {
		chunkedRoundTrip(t, data, dims, 0.05, opts, 8) // 20 planes: shards of 8,8,4
	}
}

func TestChunkedShardSplits(t *testing.T) {
	dims := []int{17, 10, 10}
	data := rampField(17 * 10 * 10)
	opts := HiTP()
	for _, cp := range []int{1, 3, 16, 17, 100} { // incl. single-chunk and over-thick
		chunkedRoundTrip(t, data, dims, 0.02, opts, cp)
	}
}

func TestChunkedLowDims(t *testing.T) {
	opts := CuszL()
	chunkedRoundTrip(t, rampField(300), []int{300}, 0.02, opts, 64)           // 1-D
	chunkedRoundTrip(t, rampField(40*25), []int{40, 25}, 0.02, opts, 16)      // 2-D
	chunkedRoundTrip(t, rampField(6*5*4*3), []int{6, 5, 4, 3}, 0.02, opts, 2) // 4-D
}

func TestChunkedMatchesOneShotGuarantees(t *testing.T) {
	// The chunked container must reconstruct with the same bound as v1;
	// shard boundaries must not leak error.
	dims := []int{24, 16, 16}
	data := rampField(24 * 16 * 16)
	eb := 0.01
	for _, opts := range []Options{HiCR(), CuszL()} {
		blob := chunkedRoundTrip(t, data, dims, eb, opts, 6)
		recon, _, err := DecompressCtx(nil, dev, blob)
		if err != nil {
			t.Fatal(err)
		}
		if !metrics.WithinBound(data, recon, eb) {
			t.Fatalf("%s: chunked recon out of bound", opts.Name)
		}
	}
}

func TestChunkedInspect(t *testing.T) {
	dims := []int{20, 8, 8}
	data := rampField(20 * 8 * 8)
	blob, err := CompressChunked(dev, data, dims, 8, v2Spec(HiTP(), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.NumChunks != 3 || info.ChunkPlanes != 8 ||
		info.EB != 0.05 || info.Dims[0] != 20 {
		t.Fatalf("info = %+v", info)
	}
	v1, err := CompressCtx(nil, dev, data, dims, 0.05, HiTP())
	if err != nil {
		t.Fatal(err)
	}
	info1, err := Inspect(v1)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Version != 1 || info1.NumChunks != 0 || info1.EB != 0.05 {
		t.Fatalf("v1 info = %+v", info1)
	}
}

func TestChunkedRejectsCorruption(t *testing.T) {
	dims := []int{12, 8, 8}
	data := rampField(12 * 8 * 8)
	blob, err := CompressChunked(dev, data, dims, 4, v2Spec(HiTP(), 0.05))
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), blob...)
	flip[len(flip)-10] ^= 0xff // payload byte: checksum must catch it
	if _, _, err := DecompressCtx(nil, dev, flip); err == nil {
		t.Fatal("corrupted payload decoded without error")
	}

	for _, cut := range []int{5, 7, 20, len(blob) / 2, len(blob) - 1} {
		if _, _, err := DecompressCtx(nil, dev, blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}

	// Trailing garbage is rejected, not silently ignored.
	if _, _, err := DecompressCtx(nil, dev, append(append([]byte(nil), blob...), 1, 2, 3)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

func TestChunkedRejectsNestedV2(t *testing.T) {
	// A v2 container whose chunk payload is itself v2 must be refused —
	// the format allows only v1 shard payloads, which bounds recursion.
	dims := []int{4, 4, 4}
	data := rampField(64)
	inner, err := CompressChunked(dev, data, dims, 4, v2Spec(HiTP(), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	header, err := AppendChunkedHeaderSized(nil, 2, dims, 0.05, false, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := appendChunkFrame(header, 2, CodecMode(HiTP()), 0, 0, dims, 0, 0, inner)
	if _, _, err := DecompressCtx(nil, dev, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nested v2 container: err = %v", err)
	}
}

func TestChunkFrameValidation(t *testing.T) {
	h := &ChunkedInfo{Dims: []int{10, 4, 4}, EB: 0.1, ChunkPlanes: 4, NumChunks: 3}
	frame := func(offset int, shardDims []int, payload []byte) []byte {
		return appendChunkFrame(nil, 2, CodecMode(HiTP()), 0, offset, shardDims, 0, 0, payload)
	}
	cases := map[string][]byte{
		"offset beyond field": frame(10, []int{4, 4, 4}, []byte("x")),
		"overthick shard":     frame(0, []int{5, 4, 4}, []byte("x")),
		"trailing dim drift":  frame(0, []int{4, 4, 5}, []byte("x")),
		"shard past end":      frame(8, []int{4, 4, 4}, []byte("x")),
	}
	for name, raw := range cases {
		if _, _, err := ReadChunkFrame(bytes.NewReader(raw), h); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A frame whose declared checksum mismatches its payload is refused.
	ok := frame(0, []int{4, 4, 4}, []byte{1, 2, 3, 4})
	// Locate the CRC (last 8 bytes = crc[4] + payload[4]) and break it.
	bad := append([]byte(nil), ok...)
	bad[len(bad)-8] ^= 0x01
	if _, _, err := ReadChunkFrame(bytes.NewReader(bad), h); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad crc: err = %v", err)
	}
}

// TestStreamFrameHostilePayloadLen proves a hostile stream header that
// declares a near-cap payload length fails with ErrCorrupt once the data
// runs out, instead of allocating gigabytes up front (payloads are read
// incrementally) — and that both decode paths share the same 1<<31 cap.
func TestStreamFrameHostilePayloadLen(t *testing.T) {
	h := &ChunkedInfo{Dims: []int{1024, 1024, 1024}, EB: 0.1, ChunkPlanes: 1024, NumChunks: 1}
	frame := bitio.AppendUvarint(nil, 0) // offset
	for _, d := range h.Dims {
		frame = bitio.AppendUvarint(frame, uint64(d))
	}
	frame = append(frame, CodecMode(HiTP()))
	frame = bitio.AppendUvarint(frame, 1<<31)  // plen at the format cap
	frame = append(frame, 0, 0, 0, 0)          // crc
	frame = append(frame, make([]byte, 64)...) // far less data than declared
	if _, _, err := ReadChunkFrame(bytes.NewReader(frame), h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile stream frame: err = %v", err)
	}
	// Over the cap: both parsers refuse outright.
	over := bitio.AppendUvarint(nil, 0)
	for _, d := range h.Dims {
		over = bitio.AppendUvarint(over, uint64(d))
	}
	over = append(over, CodecMode(HiTP()))
	over = bitio.AppendUvarint(over, 1<<31+1)
	over = append(over, 0, 0, 0, 0)
	if _, _, err := ReadChunkFrame(bytes.NewReader(over), h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap plen via stream: err = %v", err)
	}
	w := WalkBlob(h, over, 0, 0)
	if _, err := w.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap plen via blob: err = %v", err)
	}
}

// TestChunkCodecModeValidated proves a frame whose codec-mode predictor
// nibble contradicts its payload is rejected (the byte is outside the CRC,
// so the decoder must cross-check it explicitly).
func TestChunkCodecModeValidated(t *testing.T) {
	dims := []int{4, 2, 2}
	opts := HiTP()
	opts.AutoTune = false
	blob, err := CompressChunked(dev, rampField(16), dims, 2, v2Spec(opts, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	// Layout (locked by TestChunkedHeaderGolden): global header is 20
	// bytes, chunk0's codec-mode byte follows its offset + 3 shard dims.
	const modeAt = 20 + 4
	if blob[modeAt] != CodecMode(opts) {
		t.Fatalf("codec byte not at expected offset: %#x", blob[modeAt])
	}
	bad := append([]byte(nil), blob...)
	bad[modeAt] = byte(PredLorenzo)<<4 | bad[modeAt]&0x0f
	if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched codec mode: err = %v", err)
	}
}

// TestChunkedHeaderGolden locks the v2 container layout byte-for-byte so
// format changes are deliberate (bump version2 when they are).
func TestChunkedHeaderGolden(t *testing.T) {
	dims := []int{4, 2, 2}
	data := rampField(16)
	opts := HiTP()
	opts.AutoTune = false // deterministic per-level configs
	blob, err := CompressChunked(dev, data, dims, 2, v2Spec(opts, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'c', 'S', 'Z', 'h', // magic
		2, 0, // version, flags
		3, 4, 2, 2, // ndims, dims
	}
	if !bytes.Equal(blob[:len(want)], want) {
		t.Fatalf("header prefix = % x, want % x", blob[:len(want)], want)
	}
	off := len(want)
	if eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[off:])); eb != 0.25 {
		t.Fatalf("eb = %v", eb)
	}
	off += 8
	if blob[off] != 2 || blob[off+1] != 2 { // chunkPlanes, nchunks
		t.Fatalf("chunkPlanes/nchunks = %d %d", blob[off], blob[off+1])
	}
	off += 2
	// First chunk frame: offset 0, shard dims {2,2,2}, codec mode byte
	// (PredInterp<<4 | PipeHiTP = 0x01), payload length varint.
	if blob[off] != 0 || blob[off+1] != 2 || blob[off+2] != 2 || blob[off+3] != 2 {
		t.Fatalf("chunk0 header = % x", blob[off:off+4])
	}
	if mode := blob[off+4]; mode != CodecMode(opts) || mode != 0x01 {
		t.Fatalf("chunk0 codec mode = %#x", mode)
	}
	plen, n := binary.Uvarint(blob[off+5:])
	if n <= 0 {
		t.Fatal("bad payload length varint")
	}
	crcOff := off + 5 + n
	gotCRC := binary.LittleEndian.Uint32(blob[crcOff:])
	payload := blob[crcOff+4 : crcOff+4+int(plen)]
	if crc32.ChecksumIEEE(payload) != gotCRC {
		t.Fatal("chunk0 checksum does not cover payload")
	}
	// The shard payload is a well-formed v1 container.
	if !bytes.Equal(payload[:4], []byte("cSZh")) || payload[4] != 1 {
		t.Fatalf("chunk0 payload prefix = % x", payload[:5])
	}
}

// TestV3HeaderGolden locks the v3 container layout byte-for-byte: the v2
// framing plus the relative-EB flag and the per-shard value-range header
// between the codec-mode byte and the payload length.
func TestV3HeaderGolden(t *testing.T) {
	opts := CuszL()
	header, err := AppendChunkedHeaderSized(nil, 3, []int{4, 2, 2}, 0.25, true, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'c', 'S', 'Z', 'h', // magic
		3, 1, // version, flags (bit 0 = relative EB)
		3, 4, 2, 2, // ndims, dims
	}
	if !bytes.Equal(header[:len(want)], want) {
		t.Fatalf("header prefix = % x, want % x", header[:len(want)], want)
	}
	off := len(want)
	if eb := math.Float64frombits(binary.LittleEndian.Uint64(header[off:])); eb != 0.25 {
		t.Fatalf("eb = %v", eb)
	}
	off += 8
	if header[off] != 2 || header[off+1] != 2 { // chunkPlanes, nchunks
		t.Fatalf("chunkPlanes/nchunks = %d %d", header[off], header[off+1])
	}
	if off+2 != len(header) {
		t.Fatalf("header length %d, want %d", len(header), off+2)
	}

	// Frame layout: offset, shardDims, codecMode, min/max float32, plen,
	// crc, payload.
	payload := []byte{1, 2, 3}
	frame := AppendChunkFrameV3(nil, opts, 0, []int{2, 2, 2}, -1.5, 2.5, payload)
	if frame[0] != 0 || frame[1] != 2 || frame[2] != 2 || frame[3] != 2 {
		t.Fatalf("frame prefix = % x", frame[:4])
	}
	if frame[4] != CodecMode(opts) {
		t.Fatalf("codec mode = %#x", frame[4])
	}
	if math.Float32frombits(binary.LittleEndian.Uint32(frame[5:])) != -1.5 ||
		math.Float32frombits(binary.LittleEndian.Uint32(frame[9:])) != 2.5 {
		t.Fatal("range header not at bytes 5..12")
	}
	if frame[13] != 3 { // payload length varint
		t.Fatalf("plen byte = %d", frame[13])
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[14:]) {
		t.Fatal("checksum does not cover payload")
	}
	if !bytes.Equal(frame[18:], payload) {
		t.Fatal("payload bytes not at frame tail")
	}
}

// TestV3RejectsBadRange proves the shared frame validator refuses v3
// frames whose range header is unordered or NaN.
func TestV3RejectsBadRange(t *testing.T) {
	h := &ChunkedInfo{Version: 3, Dims: []int{10, 4, 4}, EB: 0.1, ChunkPlanes: 4, NumChunks: 3}
	opts := CuszL()
	bad := AppendChunkFrameV3(nil, opts, 0, []int{4, 4, 4}, 5, -5, []byte{1})
	if _, _, err := ReadChunkFrame(bytes.NewReader(bad), h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unordered range: err = %v", err)
	}
	nan := AppendChunkFrameV3(nil, opts, 0, []int{4, 4, 4}, float32(math.NaN()), 1, []byte{1})
	if _, _, err := ReadChunkFrame(bytes.NewReader(nan), h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN range: err = %v", err)
	}
	w := WalkBlob(h, bad, 0, 0)
	if _, err := w.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unordered range via blob scan: err = %v", err)
	}
}

// makeV4 assembles a valid v4 container shard by shard, the way the
// streaming writer does, returning the blob and its index entries.
func makeV4(t testing.TB, data []float32, dims []int, eb float64, cp int) ([]byte, []IndexEntry) {
	t.Helper()
	opts := CuszL()
	blob, err := AppendChunkedHeaderSized(nil, 4, dims, eb, false, cp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := planeSize(dims)
	var entries []IndexEntry
	for off := 0; off < dims[0]; off += cp {
		planes := cp
		if off+planes > dims[0] {
			planes = dims[0] - off
		}
		shard := data[off*ps : (off+planes)*ps]
		shardDims := append([]int{planes}, dims[1:]...)
		minV, maxV, _ := ShardRange(shard)
		payload, err := CompressCtx(nil, dev, shard, shardDims, eb, opts)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, IndexEntry{FrameOff: int64(len(blob)), PlaneOff: off, Planes: planes})
		blob = AppendChunkFrameV3(blob, opts, off, shardDims, minV, maxV, payload)
	}
	return AppendChunkIndexFooter(blob, 4, int64(len(blob)), entries), entries
}

// TestV4HeaderGolden locks the v4 container layout byte-for-byte: v3
// framing under version byte 4, finished with the chunk-index footer
// (index body, CRC-32 of the body, 8-byte backpointer, tail magic).
func TestV4HeaderGolden(t *testing.T) {
	dims := []int{4, 2, 2}
	blob, entries := makeV4(t, rampField(16), dims, 0.25, 2)
	want := []byte{
		'c', 'S', 'Z', 'h', // magic
		4, 0, // version, flags (absolute bound)
		3, 4, 2, 2, // ndims, dims
	}
	if !bytes.Equal(blob[:len(want)], want) {
		t.Fatalf("header prefix = % x, want % x", blob[:len(want)], want)
	}
	// Fixed-size tail: backpointer (uint64 LE) + "cSZi".
	tail := blob[len(blob)-IndexTailLen:]
	if !bytes.Equal(tail[8:], []byte("cSZi")) {
		t.Fatalf("tail magic = % x", tail[8:])
	}
	footerOff := binary.LittleEndian.Uint64(tail[:8])
	body := blob[footerOff : len(blob)-IndexTailLen-4]
	gotCRC := binary.LittleEndian.Uint32(blob[len(blob)-IndexTailLen-4:])
	if crc32.ChecksumIEEE(body) != gotCRC {
		t.Fatal("index CRC does not cover the index body")
	}
	// Index body: nchunks, then {frameOff, planeOff, planes} per chunk.
	if body[0] != 2 {
		t.Fatalf("index count byte = %d", body[0])
	}
	off := 1
	for i, e := range entries {
		for field, wantV := range []uint64{uint64(e.FrameOff), uint64(e.PlaneOff), uint64(e.Planes)} {
			v, n := binary.Uvarint(body[off:])
			if n <= 0 || v != wantV {
				t.Fatalf("entry %d field %d = %d, want %d", i, field, v, wantV)
			}
			off += n
		}
	}
	if off != len(body) {
		t.Fatalf("index body has %d trailing bytes", len(body)-off)
	}
	// The container decodes like any other, and the tail parses back.
	recon, gotDims, err := DecompressCtx(nil, dev, blob)
	if err != nil || len(recon) != 16 || gotDims[0] != 4 {
		t.Fatalf("v4 round trip: %v", err)
	}
	parsedOff, err := ParseChunkIndexTail(tail)
	if err != nil || parsedOff != int64(footerOff) {
		t.Fatalf("tail parse: off=%d err=%v", parsedOff, err)
	}
}

func TestV4Inspect(t *testing.T) {
	dims := []int{6, 4, 4}
	blob, _ := makeV4(t, rampField(96), dims, 0.1, 2)
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || !info.HasIndex || info.NumChunks != 3 || info.Dims[0] != 6 {
		t.Fatalf("info = %+v", info)
	}
	// v2 containers report no index.
	v2, err := CompressChunked(dev, rampField(96), dims, 2, v2Spec(HiTP(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	info2, err := Inspect(v2)
	if err != nil || info2.HasIndex {
		t.Fatalf("v2 info = %+v (err %v)", info2, err)
	}
}

// TestV4HostileFooters drives the sequential decoder through mutilated v4
// footers: every corruption must surface as an error, never a silent
// success or panic.
func TestV4HostileFooters(t *testing.T) {
	dims := []int{8, 4, 4}
	data := rampField(8 * 4 * 4)
	blob, entries := makeV4(t, data, dims, 0.1, 2)
	if _, _, err := DecompressCtx(nil, dev, blob); err != nil {
		t.Fatal(err) // the uncorrupted container must decode
	}
	framesEnd := int(binary.LittleEndian.Uint64(blob[len(blob)-IndexTailLen:]))

	t.Run("truncated footer", func(t *testing.T) {
		for _, cut := range []int{1, 4, IndexTailLen, IndexTailLen + 3, len(blob) - framesEnd - 1} {
			if _, _, err := DecompressCtx(nil, dev, blob[:len(blob)-cut]); err == nil {
				t.Fatalf("footer truncated by %d decoded without error", cut)
			}
		}
	})
	t.Run("index crc mismatch", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[framesEnd+1] ^= 0x40 // a byte inside the index body
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("backpointer past EOF", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[len(bad)-IndexTailLen:], uint64(len(bad)))
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("index disagrees with frames", func(t *testing.T) {
		// Rebuild the footer (valid CRC) with a lying frame offset.
		lie := append([]IndexEntry(nil), entries...)
		lie[1].FrameOff++
		bad := AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 4, int64(framesEnd), lie)
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("index plane tiling broken", func(t *testing.T) {
		lie := append([]IndexEntry(nil), entries...)
		lie[2].PlaneOff++ // gap in coverage
		bad := AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 4, int64(framesEnd), lie)
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("footer missing entirely", func(t *testing.T) {
		if _, _, err := DecompressCtx(nil, dev, blob[:framesEnd]); err == nil {
			t.Fatal("v4 without footer decoded without error")
		}
	})
}

// makeV5 assembles a valid heterogeneous v5 container, cycling the shards
// through the named codecs, returning the blob and its index entries.
func makeV5(t testing.TB, data []float32, dims []int, eb float64, cp int, codecs []string) ([]byte, []IndexEntry) {
	t.Helper()
	blob, err := AppendChunkedHeaderSized(nil, 5, dims, eb, false, cp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := planeSize(dims)
	var entries []IndexEntry
	for i, off := 0, 0; off < dims[0]; i, off = i+1, off+cp {
		planes := cp
		if off+planes > dims[0] {
			planes = dims[0] - off
		}
		cd, ok := CodecByName(codecs[i%len(codecs)])
		if !ok {
			t.Fatalf("codec %q not registered", codecs[i%len(codecs)])
		}
		shard := data[off*ps : (off+planes)*ps]
		shardDims := append([]int{planes}, dims[1:]...)
		minV, maxV, _ := ShardRange(shard)
		payload, err := cd.Compress(nil, dev, shard, shardDims, eb)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, IndexEntry{FrameOff: int64(len(blob)), PlaneOff: off, Planes: planes, Codec: cd.ID()})
		blob = AppendChunkFrameV5(blob, cd, off, shardDims, minV, maxV, payload)
	}
	return AppendChunkIndexFooter(blob, 5, int64(len(blob)), entries), entries
}

// TestV5HeaderGolden locks the v5 container layout byte-for-byte: v4
// framing under version byte 5 with a codec wire ID in every chunk frame
// (between the codec-mode byte and the value range) and in every
// chunk-index entry. The container under test mixes two codecs — the
// heterogeneous case the format exists for.
func TestV5HeaderGolden(t *testing.T) {
	dims := []int{4, 2, 2}
	blob, entries := makeV5(t, rampField(16), dims, 0.25, 2, []string{"cusz-l", "hi-tp"})
	want := []byte{
		'c', 'S', 'Z', 'h', // magic
		5, 0, // version, flags (absolute bound)
		3, 4, 2, 2, // ndims, dims
	}
	if !bytes.Equal(blob[:len(want)], want) {
		t.Fatalf("header prefix = % x, want % x", blob[:len(want)], want)
	}
	off := len(want)
	if eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[off:])); eb != 0.25 {
		t.Fatalf("eb = %v", eb)
	}
	off += 8
	if blob[off] != 2 || blob[off+1] != 2 { // chunkPlanes, nchunks
		t.Fatalf("chunkPlanes/nchunks = %d %d", blob[off], blob[off+1])
	}
	off += 2
	// Chunk 0 (cusz-l): offset 0, shard dims {2,2,2}, codec mode
	// (PredLorenzo<<4 | PipeHuff = 0x12), codec ID 5, then the range.
	if blob[off] != 0 || blob[off+1] != 2 || blob[off+2] != 2 || blob[off+3] != 2 {
		t.Fatalf("chunk0 header = % x", blob[off:off+4])
	}
	if blob[off+4] != CodecMode(CuszL()) || blob[off+4] != 0x12 {
		t.Fatalf("chunk0 codec mode = %#x", blob[off+4])
	}
	if CodecID(blob[off+5]) != CodecCuszL {
		t.Fatalf("chunk0 codec id = %d", blob[off+5])
	}
	// Chunk 1 (hi-tp) sits at the second index entry's frame offset.
	f1 := entries[1].FrameOff
	if blob[f1] != 2 { // plane offset 2
		t.Fatalf("chunk1 offset byte = %d", blob[f1])
	}
	if blob[f1+4] != CodecMode(HiTP()) || blob[f1+4] != 0x01 {
		t.Fatalf("chunk1 codec mode = %#x", blob[f1+4])
	}
	if CodecID(blob[f1+5]) != CodecHiTP {
		t.Fatalf("chunk1 codec id = %d", blob[f1+5])
	}
	// Footer: index body entries are {frameOff, planeOff, planes, codecID}.
	tail := blob[len(blob)-IndexTailLen:]
	if !bytes.Equal(tail[8:], []byte("cSZi")) {
		t.Fatalf("tail magic = % x", tail[8:])
	}
	footerOff := binary.LittleEndian.Uint64(tail[:8])
	body := blob[footerOff : len(blob)-IndexTailLen-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(blob)-IndexTailLen-4:]) {
		t.Fatal("index CRC does not cover the index body")
	}
	if body[0] != 2 {
		t.Fatalf("index count byte = %d", body[0])
	}
	bo := 1
	for i, e := range entries {
		for field, wantV := range []uint64{uint64(e.FrameOff), uint64(e.PlaneOff), uint64(e.Planes), uint64(e.Codec)} {
			v, n := binary.Uvarint(body[bo:])
			if n <= 0 || v != wantV {
				t.Fatalf("entry %d field %d = %d, want %d", i, field, v, wantV)
			}
			bo += n
		}
	}
	if bo != len(body) {
		t.Fatalf("index body has %d trailing bytes", len(body)-bo)
	}
	// And the mixed container decodes.
	recon, gotDims, err := DecompressCtx(nil, dev, blob)
	if err != nil || len(recon) != 16 || gotDims[0] != 4 {
		t.Fatalf("v5 round trip: %v", err)
	}
}

// TestV5MixedCodecRoundTrip is the acceptance case: a v5 container whose
// chunks use two different codecs reconstructs within the bound through
// the sequential decoder, and Inspect reports the per-chunk histogram
// from the footer alone.
func TestV5MixedCodecRoundTrip(t *testing.T) {
	dims := []int{24, 10, 10}
	data := rampField(24 * 10 * 10)
	blob, _ := makeV5(t, data, dims, 0.05, 6, []string{"hi-cr", "cusz-l"})
	recon, gotDims, err := DecompressCtx(nil, dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotDims[0] != 24 {
		t.Fatalf("dims = %v", gotDims)
	}
	if i := metrics.FirstViolation(data, recon, 0.05); i >= 0 {
		t.Fatalf("bound violated at %d", i)
	}
	info, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 5 || !info.HasIndex ||
		info.ChunkCodecs["hi-cr"] != 2 || info.ChunkCodecs["cusz-l"] != 2 {
		t.Fatalf("info = %+v", info)
	}
	// Auto-mode CompressChunked produces the same format end to end.
	auto, err := CompressChunked(dev, data, dims, 6, EncodeSpec{Version: 5, EB: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if auto[4] != 5 {
		t.Fatalf("auto container version = %d", auto[4])
	}
	areon, _, err := DecompressCtx(nil, dev, auto)
	if err != nil {
		t.Fatal(err)
	}
	if i := metrics.FirstViolation(data, areon, 0.05); i >= 0 {
		t.Fatalf("auto bound violated at %d", i)
	}
}

// TestV5HostileCodecIDs drives the decoder through mutilated v5 codec
// metadata: unknown wire IDs, frame/footer disagreements and mode/ID
// mismatches must all surface as ErrCorrupt, never a panic or a silent
// wrong-codec decode.
func TestV5HostileCodecIDs(t *testing.T) {
	dims := []int{8, 4, 4}
	data := rampField(8 * 4 * 4)
	blob, entries := makeV5(t, data, dims, 0.1, 2, []string{"cusz-l", "hi-tp"})
	if _, _, err := DecompressCtx(nil, dev, blob); err != nil {
		t.Fatal(err) // the uncorrupted container must decode
	}
	framesEnd := int(binary.LittleEndian.Uint64(blob[len(blob)-IndexTailLen:]))
	idAt := func(i int) int { return int(entries[i].FrameOff) + 5 } // offset+3 dims+mode

	t.Run("unknown codec id in frame", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[idAt(0)] = 0x7f
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("zero codec id in frame", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[idAt(0)] = 0
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("codec id disagrees with mode byte", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[idAt(0)] = byte(CodecHiTP) // frame 0 carries cusz-l's mode byte
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("footer codec disagrees with frame", func(t *testing.T) {
		lie := append([]IndexEntry(nil), entries...)
		lie[0].Codec = CodecHiTP // registered and self-consistent, but wrong
		bad := AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 5, int64(framesEnd), lie)
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown codec id in footer", func(t *testing.T) {
		lie := append([]IndexEntry(nil), entries...)
		lie[1].Codec = 0x7f
		bad := AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 5, int64(framesEnd), lie)
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("v4 footer on a v5 body", func(t *testing.T) {
		// Entries without codec IDs cannot satisfy a v5 parse.
		bad := AppendChunkIndexFooter(append([]byte(nil), blob[:framesEnd]...), 4, int64(framesEnd), entries)
		if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestV2RejectsNonzeroFlags: the v2 flags byte is reserved as zero; a
// nonzero value must be refused rather than silently reinterpreted.
func TestV2RejectsNonzeroFlags(t *testing.T) {
	dims := []int{4, 2, 2}
	blob, err := CompressChunked(dev, rampField(16), dims, 2, v2Spec(CuszL(), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[5] = 1
	if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v2 with flags=1: err = %v", err)
	}
}

// TestEncodeSpecValidation: a custom assembly without a wire ID frames
// v2–v4 chunks only; codec-ID modes need v5; the resolver picks each mode's
// native version and refuses misspelled or misplaced policies.
func TestEncodeSpecValidation(t *testing.T) {
	dims := []int{4, 4, 4}
	data := rampField(64)
	custom := optionsCodec(SZ3Like())
	for ver := 2; ver <= 4; ver++ {
		blob, err := CompressChunked(dev, data, dims, 2, EncodeSpec{Version: ver, EB: 0.1, Codec: custom})
		if err != nil {
			t.Fatalf("v%d custom assembly: %v", ver, err)
		}
		if _, _, err := DecompressCtx(nil, dev, blob); err != nil || blob[4] != byte(ver) {
			t.Fatalf("v%d custom assembly: version %d, decode %v", ver, blob[4], err)
		}
	}
	if _, err := CompressChunked(dev, data, dims, 2, EncodeSpec{Version: 5, EB: 0.1, Codec: custom}); err == nil {
		t.Fatal("v5 accepted a codec without a wire ID")
	}
	hiCR, _ := CodecByName("hi-cr")
	if _, err := CompressChunked(dev, data, dims, 2, EncodeSpec{Version: 2, EB: 0.1, Relative: true, Codec: hiCR}); err == nil {
		t.Fatal("v2 accepted a relative bound")
	}

	for _, tc := range []struct {
		mode, policy string
		ver, want    int // want 0: must fail
	}{
		{"hi-cr", "", 0, 4},
		{"cusz-l", "", 5, 5},
		{"szx", "", 0, 5},
		{"auto", "throughput", 0, 5},
		{"szx", "", 4, 0},
		{"auto", "", 3, 0},
		{"hi-cr", "throughput", 0, 0},
		{"auto", "bogus", 0, 0},
		{"no-such-mode", "", 0, 0},
	} {
		spec, err := ResolveEncodeSpec(tc.mode, tc.policy, tc.ver)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("%s/%q at v%d: accepted", tc.mode, tc.policy, tc.ver)
		case tc.want != 0 && (err != nil || spec.Version != tc.want):
			t.Errorf("%s/%q at v%d: version %d, err %v; want v%d", tc.mode, tc.policy, tc.ver, spec.Version, err, tc.want)
		}
	}
}
