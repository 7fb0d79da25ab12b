package cuszhi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// FuzzDecompress feeds arbitrary bytes — seeded with valid v1, v2, v3 and
// v4 containers and systematic truncations of each — to Decompress, proving
// it returns errors on malformed input instead of panicking or
// over-reading. Run with `go test -fuzz=FuzzDecompress ./cuszhi` to
// explore beyond the seed corpus.
func FuzzDecompress(f *testing.F) {
	data := make([]float32, 6*8*8)
	for i := range data {
		data[i] = float32(i%19) * 0.25
	}
	dims := []int{6, 8, 8}

	oneShot, err := New(ModeTP)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := oneShot.CompressAbs(data, dims, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	tp, ok := core.CodecByName(string(ModeTP))
	if !ok {
		f.Fatal(ModeTP)
	}
	v2, err := core.CompressChunked(gpusim.Default, data, dims, 2, core.EncodeSpec{Version: 2, EB: 0.05, Codec: tp})
	if err != nil {
		f.Fatal(err)
	}

	lorenzo, err := New(ModeCuszL)
	if err != nil {
		f.Fatal(err)
	}
	vl, err := lorenzo.CompressAbs(data, dims, 0.05)
	if err != nil {
		f.Fatal(err)
	}

	// A v3 container (per-shard range headers, relative bound), assembled
	// shard by shard the way the streaming writer does.
	lOpts, err := core.ModeOptions(string(ModeCuszL))
	if err != nil {
		f.Fatal(err)
	}
	v3, err := core.AppendChunkedHeaderSized(nil, 3, dims, 0.01, true, 2, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	for off := 0; off < dims[0]; off += 2 {
		shard := data[off*64 : (off+2)*64]
		minV, maxV, _ := core.ShardRange(shard)
		absEB := 0.01 * float64(maxV-minV)
		shardDims := []int{2, 8, 8}
		payload, err := core.CompressCtx(nil, gpusim.Default, shard, shardDims, absEB, lOpts)
		if err != nil {
			f.Fatal(err)
		}
		v3 = core.AppendChunkFrameV3(v3, lOpts, off, shardDims, minV, maxV, payload)
	}
	if _, _, err := Decompress(v3); err != nil {
		f.Fatal(err) // the seed itself must be valid
	}

	// A v4 container (seekable: v3 framing + chunk-index footer), built the
	// way the streaming writer builds it.
	v4, err := core.AppendChunkedHeaderSized(nil, 4, dims, 0.05, false, 2, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	var v4idx []core.IndexEntry
	for off := 0; off < dims[0]; off += 2 {
		shard := data[off*64 : (off+2)*64]
		minV, maxV, _ := core.ShardRange(shard)
		shardDims := []int{2, 8, 8}
		payload, err := core.CompressCtx(nil, gpusim.Default, shard, shardDims, 0.05, lOpts)
		if err != nil {
			f.Fatal(err)
		}
		v4idx = append(v4idx, core.IndexEntry{FrameOff: int64(len(v4)), PlaneOff: off, Planes: 2})
		v4 = core.AppendChunkFrameV3(v4, lOpts, off, shardDims, minV, maxV, payload)
	}
	v4 = core.AppendChunkIndexFooter(v4, 4, int64(len(v4)), v4idx)
	if _, _, err := Decompress(v4); err != nil {
		f.Fatal(err) // the seed itself must be valid
	}

	// A v5 container (heterogeneous: per-chunk codec IDs in the frames and
	// the index footer), with the shards alternating between two codecs.
	v5, err := core.AppendChunkedHeaderSized(nil, 5, dims, 0.05, false, 2, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	v5codecs := []string{"cusz-l", "hi-tp"}
	var v5idx []core.IndexEntry
	for i, off := 0, 0; off < dims[0]; i, off = i+1, off+2 {
		cd, ok := core.CodecByName(v5codecs[i%2])
		if !ok {
			f.Fatal(v5codecs[i%2])
		}
		shard := data[off*64 : (off+2)*64]
		minV, maxV, _ := core.ShardRange(shard)
		shardDims := []int{2, 8, 8}
		payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, 0.05)
		if err != nil {
			f.Fatal(err)
		}
		v5idx = append(v5idx, core.IndexEntry{FrameOff: int64(len(v5)), PlaneOff: off, Planes: 2, Codec: cd.ID()})
		v5 = core.AppendChunkFrameV5(v5, cd, off, shardDims, minV, maxV, payload)
	}
	v5 = core.AppendChunkIndexFooter(v5, 5, int64(len(v5)), v5idx)
	if _, _, err := Decompress(v5); err != nil {
		f.Fatal(err) // the seed itself must be valid
	}

	// A v5 container whose chunks use the backend codecs (fzgpu, szx):
	// the registry dispatches them by wire ID and their payloads are
	// self-contained, so the corpus must cover that path too.
	v5b, err := core.AppendChunkedHeaderSized(nil, 5, dims, 0.05, false, 3, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	backendCodecs := []string{"fzgpu", "szx"}
	var v5bIdx []core.IndexEntry
	for i, off := 0, 0; off < dims[0]; i, off = i+1, off+3 {
		cd, ok := core.CodecByName(backendCodecs[i%2])
		if !ok {
			f.Fatal(backendCodecs[i%2])
		}
		shard := data[off*64 : (off+3)*64]
		minV, maxV, _ := core.ShardRange(shard)
		shardDims := []int{3, 8, 8}
		payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, 0.05)
		if err != nil {
			f.Fatal(err)
		}
		v5bIdx = append(v5bIdx, core.IndexEntry{FrameOff: int64(len(v5b)), PlaneOff: off, Planes: 3, Codec: cd.ID()})
		v5b = core.AppendChunkFrameV5(v5b, cd, off, shardDims, minV, maxV, payload)
	}
	v5b = core.AppendChunkIndexFooter(v5b, 5, int64(len(v5b)), v5bIdx)
	if _, _, err := Decompress(v5b); err != nil {
		f.Fatal(err) // the seed itself must be valid
	}

	// A v5 frame carrying a TRUNCATED backend payload under a valid CRC:
	// the container framing checks all pass, so the corpus reaches the
	// backend decoder's own hostile-input validation.
	for _, name := range []string{"fzgpu", "szp", "szx"} {
		cd, ok := core.CodecByName(name)
		if !ok {
			f.Fatal(name)
		}
		shard := data[:3*64]
		shardDims := []int{3, 8, 8}
		minV, maxV, _ := core.ShardRange(shard)
		payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, 0.05)
		if err != nil {
			f.Fatal(err)
		}
		trunc, err := core.AppendChunkedHeaderSized(nil, 5, shardDims, 0.05, false, 3, 0, 0)
		if err != nil {
			f.Fatal(err)
		}
		idx := []core.IndexEntry{{FrameOff: int64(len(trunc)), PlaneOff: 0, Planes: 3, Codec: cd.ID()}}
		trunc = core.AppendChunkFrameV5(trunc, cd, 0, shardDims, minV, maxV, payload[:len(payload)/2])
		f.Add(core.AppendChunkIndexFooter(trunc, 5, int64(len(trunc)), idx))
	}

	for _, blob := range [][]byte{v1, v2, vl, v3, v4, v5, v5b} {
		f.Add(blob)
		for _, cut := range []int{0, 3, 5, 9, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:cut])
		}
		// Single-byte corruptions at structurally interesting offsets.
		for _, at := range []int{4, 5, 6, 8, 16, 20, len(blob) - 5} {
			mut := append([]byte(nil), blob...)
			mut[at] ^= 0x81
			f.Add(mut)
		}
	}
	f.Add([]byte("cSZh"))
	f.Add([]byte{'c', 'S', 'Z', 'h', 2, 0, 0xff, 0xff, 0xff, 0xff, 0xff})

	// Bit-rotted sealed stores: one flipped byte inside each chunk frame's
	// interior (payload rot, CRC-detected) and one inside the index footer
	// body, aimed using the recovery scan's frame map.
	for _, blob := range [][]byte{v4, v5, v5b} {
		rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			f.Fatal(err)
		}
		for i, e := range rec.Entries {
			end := rec.FramesEnd
			if i+1 < len(rec.Entries) {
				end = rec.Entries[i+1].FrameOff
			}
			mut := append([]byte(nil), blob...)
			mut[(e.FrameOff+end)/2] ^= 0x81
			f.Add(mut)
		}
		mut := append([]byte(nil), blob...)
		mut[(rec.FramesEnd+int64(len(blob)))/2] ^= 0x81
		f.Add(mut)
	}

	// Hostile index tails on otherwise healthy v4/v5 containers: the
	// 8-byte backpointer patched to run past EOF, to zero (before the
	// header), and a file consisting of nothing but a valid-looking tail.
	for _, blob := range [][]byte{v4, v5} {
		past := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(past[len(past)-core.IndexTailLen:], uint64(len(past))*4)
		f.Add(past)
		zero := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(zero[len(zero)-core.IndexTailLen:], 0)
		f.Add(zero)
		f.Add(blob[len(blob)-core.IndexTailLen:])
		f.Add(blob[:len(blob)-core.IndexTailLen+3]) // tail cut mid-magic
	}

	// A v1 container whose outlier codes have no outlier values.
	f.Add(v1EmptiedOutliers(f))

	f.Fuzz(func(t *testing.T, blob []byte) {
		recon, dims, err := Decompress(blob) // must never panic
		if err != nil {
			return
		}
		total := 1
		for _, d := range dims {
			if d <= 0 {
				t.Fatalf("nil error but invalid dim %d in %v", d, dims)
			}
			total *= d
		}
		if total != len(recon) {
			t.Fatalf("nil error but %d values for dims %v", len(recon), dims)
		}
	})
}

// v1EmptiedOutliers compresses a spiky field, whose interpolation codes
// include outliers, into a v1 container and returns it with the outlier
// section replaced by an empty one.
func v1EmptiedOutliers(tb testing.TB) []byte {
	data := make([]float32, 6*8*8)
	for i := range data {
		data[i] = float32(i%19) * 0.25
		if i%37 == 5 {
			data[i] = 1e6
		}
	}
	c, err := New(ModeTP)
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := c.CompressAbs(data, []int{6, 8, 8}, 0.05)
	if err != nil {
		tb.Fatal(err)
	}
	// Walk the v1 interpolation layout to the outlier section: magic,
	// version, predictor, rank, dims, bound, pipeline, reorder flag, anchor
	// stride, three block extents, level count, two bytes per level, anchor
	// byte count, anchors.
	off := 6
	uv := func() int {
		v, n := bitio.Uvarint(blob[off:])
		off += n
		return int(v)
	}
	for rank := uv(); rank > 0; rank-- {
		uv()
	}
	off += 8 + 2
	for i := 0; i < 4; i++ {
		uv()
	}
	off += 2 * uv()
	off += uv()
	start := off
	count := uv()
	if count == 0 {
		tb.Fatal("the spiky field stored no outliers")
	}
	for i := 0; i < count; i++ {
		uv()
	}
	off += 4 * count
	return append(append(blob[:start:start], 0), blob[off:]...)
}

// TestEmptiedOutlierSectionIsCorrupt: an outlier code whose value is
// missing from the outlier list must fail the decode, not turn into 0.
func TestEmptiedOutlierSectionIsCorrupt(t *testing.T) {
	if _, _, err := Decompress(v1EmptiedOutliers(t)); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("decode error %v, want core.ErrCorrupt", err)
	}
}
