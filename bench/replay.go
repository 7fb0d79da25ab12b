package main

import (
	"bytes"
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/interp"
	"repro/internal/lccodec"
	"repro/internal/quant"
)

// The replay re-runs every shard of a sealed store through the layers'
// public functions, in the order core calls them, so each layer's time can
// be read without changing library code. It runs on a one-worker device:
// every layer then runs inline on the calling goroutine and its span
// measures that layer's CPU time alone.
var (
	replayDev    = gpusim.New(1)
	pipeHiCRTail = lccodec.HiCRTail()
	pipeHiTP     = lccodec.HiTP()
)

// replayStats is what one replay pass saw besides its spans.
type replayStats struct {
	picks       map[string]int // shards per codec
	interpBytes int64          // raw bytes of the shards an interp codec coded
}

// storeIndex parses a sealed v4/v5 store's header and chunk index, and
// returns each chunk's frame bytes.
func storeIndex(store []byte) (*core.ChunkedInfo, []core.IndexEntry, [][]byte, error) {
	br := bytes.NewReader(store)
	h, err := core.ReadChunkedHeader(br)
	if err != nil {
		return nil, nil, nil, err
	}
	if h.Version < 4 || len(store) < core.IndexTailLen {
		return nil, nil, nil, fmt.Errorf("store version %d has no chunk index", h.Version)
	}
	footerOff, err := core.ParseChunkIndexTail(store[len(store)-core.IndexTailLen:])
	if err != nil {
		return nil, nil, nil, err
	}
	if footerOff > int64(len(store)-core.IndexTailLen) {
		return nil, nil, nil, core.ErrCorrupt
	}
	entries, err := core.ParseChunkIndex(store[footerOff:len(store)-core.IndexTailLen], h, footerOff)
	if err != nil {
		return nil, nil, nil, err
	}
	frames := make([][]byte, len(entries))
	for i, e := range entries {
		end := footerOff
		if i+1 < len(entries) {
			end = entries[i+1].FrameOff
		}
		frames[i] = store[e.FrameOff:end]
	}
	return h, entries, frames, nil
}

// replay runs one pass over every shard of store. recon is the field the
// real Reader returned for that store. It fails when the replay is not
// faithful: each replayed lossless payload must be a suffix of the
// Codec.Compress output, framing that output must give the store's frame
// bytes, and the decode replay must give the Reader's planes bit for bit.
func (b *bench) replay(t *tracer, store []byte, recon []float32, pass int) (replayStats, error) {
	rs := replayStats{picks: map[string]int{}}
	h, entries, frames, err := storeIndex(store)
	if err != nil {
		return rs, fmt.Errorf("replay: %w", err)
	}
	pol, err := core.PolicyByName("")
	if err != nil {
		return rs, err
	}
	// A v4 store has one codec, the workload's mode; a v5 store's codec is
	// picked per shard, so the replay runs the estimator as the writer did.
	var fixed core.Codec
	if h.Version < 5 {
		var ok bool
		if fixed, ok = core.CodecByName(string(b.w.mode)); !ok {
			return rs, fmt.Errorf("replay: mode %q is not a registered codec", b.w.mode)
		}
	}
	ref, enc, dec := arena.Get(), arena.Get(), arena.Get()
	defer func() { arena.Put(ref); arena.Put(enc); arena.Put(dec) }()
	ps := b.planeElems()
	for i, e := range entries {
		ref.Reset()
		enc.Reset()
		dec.Reset()
		op := pass*len(entries) + i
		lo, hi := e.PlaneOff*ps, (e.PlaneOff+e.Planes)*ps
		sh := shardReplay{t: t, op: op, data: b.field[lo:hi], dims: append([]int{e.Planes}, b.dims[1:]...),
			offset: e.PlaneOff, h: h, fixed: fixed, frame: frames[i], recon: recon[lo:hi], ref: ref, enc: enc, dec: dec}
		// Alternate which of the reference call and the layer calls runs
		// first, so neither always finds the shard warm in cache.
		sh.refFirst = op%2 == 0
		name, isInterp, err := sh.run(pol)
		if err != nil {
			return rs, fmt.Errorf("replay: shard at plane %d: %w", e.PlaneOff, err)
		}
		rs.picks[name]++
		if isInterp {
			rs.interpBytes += 4 * int64(hi-lo)
		}
	}
	return rs, nil
}

// shardReplay is one shard's encode and decode replay.
type shardReplay struct {
	t             *tracer
	op            int
	data          []float32
	dims          []int
	offset        int
	h             *core.ChunkedInfo
	fixed         core.Codec // the store's codec; nil when picked per shard
	frame         []byte     // the store's frame bytes for this shard
	recon         []float32  // the Reader's planes for this shard
	ref, enc, dec *arena.Ctx
	refFirst      bool
}

func (s *shardReplay) timed(name string, parent int, f func()) { s.t.timed(name, parent, s.op, 0, f) }

// run replays the shard's encode, then its decode, and returns the codec
// that coded it.
func (s *shardReplay) run(pol core.SelectionPolicy) (codec string, isInterp bool, err error) {
	cd, isInterp, losslessLen, st, err := s.encode(pol)
	if err != nil {
		return "", false, err
	}
	if err := s.decode(cd, isInterp, losslessLen, st); err != nil {
		return "", false, err
	}
	return cd.Name(), isInterp, nil
}

// encode replays the shard's range scan, codec selection, compression and
// framing, and checks the replay against Codec.Compress and the store.
func (s *shardReplay) encode(pol core.SelectionPolicy) (cd core.Codec, isInterp bool, losslessLen int, st interpState, err error) {
	root := s.t.begin("replay.encode", -1, s.op, 0)
	defer s.t.end(root, 0)
	var minV, maxV float32
	s.timed("core.shard_range", root, func() { minV, maxV, _ = core.ShardRange(s.data) })
	eb := s.h.EB
	if s.h.RelEB {
		if !(maxV > minV) {
			return nil, false, 0, st, fmt.Errorf("constant shard: the replay resolves relative bounds for ranged shards only")
		}
		eb *= float64(maxV) - float64(minV)
	}
	cd = s.fixed
	if cd == nil {
		s.timed("core.estimate", root, func() { cd, _, err = core.SelectShardCodecPolicy(s.ref, replayDev, s.data, s.dims, eb, pol) })
		if err != nil {
			return nil, false, 0, st, err
		}
	}
	opts, optErr := core.ModeOptions(cd.Name())
	isInterp = optErr == nil && opts.Predictor == core.PredInterp &&
		(opts.Pipeline == core.PipeHiCR || opts.Pipeline == core.PipeHiTP)
	var payload, layered []byte
	var lerr error
	reference := func() {
		s.timed("core.codec_compress", root, func() { payload, err = cd.Compress(s.ref, replayDev, s.data, s.dims, eb) })
	}
	layers := func() {
		if isInterp {
			layered, st, lerr = s.encodeInterp(root, opts, eb)
		} else {
			s.timed(cd.Name()+".encode", root, func() { layered, lerr = cd.Compress(s.enc, replayDev, s.data, s.dims, eb) })
		}
	}
	if s.refFirst {
		reference()
		layers()
	} else {
		layers()
		reference()
	}
	if err == nil {
		err = lerr
	}
	if err != nil {
		return nil, false, 0, st, err
	}
	if !bytes.HasSuffix(payload, layered) {
		return nil, false, 0, st, fmt.Errorf("replayed %s payload (%d bytes) is not a suffix of Codec.Compress output (%d bytes)", cd.Name(), len(layered), len(payload))
	}
	var frame []byte
	s.timed("core.frame_crc", root, func() {
		if s.h.Version >= 5 {
			frame = core.AppendChunkFrameV5(nil, cd, s.offset, s.dims, minV, maxV, payload)
		} else {
			frame = core.AppendChunkFrameV3(nil, opts, s.offset, s.dims, minV, maxV, payload)
		}
	})
	if !bytes.Equal(frame, s.frame) {
		return nil, false, 0, st, fmt.Errorf("framed %s output differs from the store's frame (%d vs %d bytes)", cd.Name(), len(frame), len(s.frame))
	}
	return cd, isInterp, len(layered), st, nil
}

// interpState is what the decode replay needs from the encode replay: the
// assembly, its tuned configuration, the bound, the anchors and the
// outliers, which a decoder would parse from the shard header.
type interpState struct {
	opts core.Options
	cfg  interp.Config
	eb   float64
	res  *interp.Result
}

// encodeInterp replays core's interpolation path: auto-tune, predict and
// quantize, level-order reorder, then Huffman and the hi-cr lossless tail,
// or the hi-tp bitplane pipeline. It returns the lossless payload.
func (s *shardReplay) encodeInterp(root int, opts core.Options, eb float64) ([]byte, interpState, error) {
	cfg := opts.Interp
	g := interp.NewGrid(s.dims)
	var err error
	if opts.AutoTune {
		s.timed("interp.autotune", root, func() { cfg.PerLevel = interp.AutoTune(replayDev, s.data, g, cfg, interp.DefaultSampleFraction) })
	}
	var res *interp.Result
	s.timed("interp.predict_quant", root, func() { res, err = interp.CompressCtx(s.enc, replayDev, s.data, g, cfg, eb) })
	if err != nil {
		return nil, interpState{}, err
	}
	codes := res.Codes
	if opts.Reorder {
		s.timed("quant.reorder", root, func() {
			perm := quant.LevelOrderPermCtx(s.enc, s.dims, cfg.AnchorStride)
			reordered := s.enc.Bytes(len(codes))
			quant.Apply(replayDev, perm, codes, reordered)
			codes = reordered
		})
	}
	var out []byte
	if opts.Pipeline == core.PipeHiCR {
		var hf []byte
		s.timed("huffman.encode", root, func() { hf, err = huffman.EncodeBytesCtx(s.enc, replayDev, codes, res.Freq) })
		if err == nil {
			s.timed("lccodec.encode", root, func() { out, err = pipeHiCRTail.EncodeCtx(s.enc, replayDev, hf) })
		}
	} else {
		s.timed("lccodec.encode", root, func() { out, err = pipeHiTP.EncodeCtx(s.enc, replayDev, codes) })
	}
	return out, interpState{opts: opts, cfg: cfg, eb: eb, res: res}, err
}

// decode replays the store frame's decode: frame parse and CRC, the
// reference DecompressShardCtx, then the layers in decode order. Both must
// give the Reader's planes bit for bit.
func (s *shardReplay) decode(cd core.Codec, isInterp bool, losslessLen int, st interpState) error {
	root := s.t.begin("replay.decode", -1, s.op, 0)
	defer s.t.end(root, 0)
	var c *core.ChunkInfo
	var payload []byte
	var err error
	s.timed("core.frame_parse_crc", root, func() { c, payload, err = core.ReadChunkFrame(bytes.NewReader(s.frame), s.h) })
	if err != nil {
		return err
	}
	var refOut, out []float32
	var lerr error
	reference := func() {
		s.timed("core.codec_decompress", root, func() { refOut, err = core.DecompressShardCtx(s.ref, replayDev, c, payload) })
	}
	layers := func() {
		if isInterp {
			out, lerr = s.decodeInterp(root, payload[len(payload)-losslessLen:], st)
		} else {
			s.timed(cd.Name()+".decode", root, func() { out, _, lerr = cd.Decompress(s.dec, replayDev, payload) })
		}
	}
	if s.refFirst {
		reference()
		layers()
	} else {
		layers()
		reference()
	}
	if err != nil {
		return err
	}
	if lerr != nil {
		return lerr
	}
	if err := sameBits(refOut, s.recon); err != nil {
		return fmt.Errorf("DecompressShardCtx vs Reader: %w", err)
	}
	if err := sameBits(out, s.recon); err != nil {
		return fmt.Errorf("decode replay vs Reader: %w", err)
	}
	return nil
}

func (s *shardReplay) decodeInterp(root int, lossless []byte, st interpState) ([]float32, error) {
	var codes []byte
	var err error
	if st.opts.Pipeline == core.PipeHiCR {
		var hf []byte
		s.timed("lccodec.decode", root, func() { hf, err = pipeHiCRTail.DecodeCtx(s.dec, replayDev, lossless) })
		if err == nil {
			s.timed("huffman.decode", root, func() { codes, err = huffman.DecodeBytesCtx(s.dec, replayDev, hf) })
		}
	} else {
		s.timed("lccodec.decode", root, func() { codes, err = pipeHiTP.DecodeCtx(s.dec, replayDev, lossless) })
	}
	if err != nil {
		return nil, err
	}
	if len(codes) != len(s.data) {
		return nil, fmt.Errorf("decoded %d codes, want %d", len(codes), len(s.data))
	}
	if st.opts.Reorder {
		s.timed("quant.invert", root, func() {
			perm := quant.LevelOrderPermCtx(s.dec, s.dims, st.cfg.AnchorStride)
			natural := s.dec.Bytes(len(codes))
			quant.Invert(replayDev, perm, codes, natural)
			codes = natural
		})
	}
	var out []float32
	res := &interp.Result{Codes: codes, Anchors: st.res.Anchors, Outliers: st.res.Outliers}
	s.timed("interp.reconstruct", root, func() { out, err = interp.DecompressCtx(s.dec, replayDev, res, interp.NewGrid(s.dims), st.cfg, st.eb) })
	return out, err
}
