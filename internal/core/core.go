// Package core assembles the cuSZ-Hi compression framework (Fig. 2): a
// lossy decomposition stage (the interpolation predictor of internal/interp
// or the Lorenzo predictor of internal/lorenzo) followed by a lossless
// encoding pipeline, wrapped in a self-contained container format.
//
// The same machinery, configured differently, yields the paper's
// compressors:
//
//	cuSZ-Hi-CR  interp 17³/stride-16, auto-tuned, reordered, HF-RRE4-TCMS8-RZE1
//	cuSZ-Hi-TP  same predictor, TCMS1-BIT1-RRE1
//	cuSZ-I      interp 33×9×9/stride-8, 1-D scheme, Huffman
//	cuSZ-IB     cuSZ-I + Bitcomp(-surrogate) recompression
//	cuSZ-L      Lorenzo dual-quant + Huffman
//
// plus the incremental ablation variants of Table 5.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/bitcomp"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/interp"
	"repro/internal/lccodec"
	"repro/internal/lorenzo"
	"repro/internal/quant"
)

// Parsed pipeline singletons for the hot paths (Parse is cheap but not
// free, and these run once per shard).
var (
	pipeHiCR     = lccodec.HiCR()
	pipeHiCRTail = lccodec.HiCRTail()
	pipeHiTP     = lccodec.HiTP()
)

// predictorEntry is one registered lossy decomposition stage. compress
// appends the predictor header to the container prefix under construction
// and returns the finished container (finishContainer); decompress resumes at blob[off:], just past the shared
// container header, and returns planes [lo, hi) of dims[0].
type predictorEntry struct {
	compress   func(ctx *arena.Ctx, dev *gpusim.Device, out []byte, data []float32, dims []int, eb float64, opts Options) ([]byte, error)
	decompress func(ctx *arena.Ctx, dev *gpusim.Device, blob []byte, off int, dims []int, total int, eb float64, lo, hi int) ([]float32, []int, error)
}

// predictors is the predictor registry: CompressCtx/DecompressCtx dispatch
// through it instead of switching on the Predictor byte, so an unknown
// wire value fails cleanly (invalid option on encode, ErrCorrupt on
// decode) and new decomposition stages plug in without touching dispatch.
var predictors = map[Predictor]predictorEntry{
	PredInterp:  {compressInterp, decompressInterp},
	PredLorenzo: {compressLorenzo, decompressLorenzo},
}

// pipelineEntry is one registered lossless encoding stage. encode/decode
// run over byte-wide quant codes (the interpolation predictor); the Syms
// variants run over uint16 symbols (the Lorenzo predictor) and are nil for
// pipelines that predictor cannot drive.
type pipelineEntry struct {
	name       string
	encode     func(ctx *arena.Ctx, dev *gpusim.Device, codes []byte, freq []int64) ([]byte, error)
	decode     func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]byte, error)
	encodeSyms func(ctx *arena.Ctx, dev *gpusim.Device, syms []uint16, alphabet int, freq []int64) ([]byte, error)
	decodeSyms func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]uint16, error)
}

// pipelines is the lossless-pipeline registry, replacing the per-call
// switch ladders over the Pipeline byte.
var pipelines = map[Pipeline]pipelineEntry{
	PipeHiCR: {
		name: "HF-RRE4-TCMS8-RZE1",
		// HF first, fed the fused histogram, then the rest of the chain —
		// byte-identical to running the full HF-RRE4-TCMS8-RZE1 pipeline.
		encode: func(ctx *arena.Ctx, dev *gpusim.Device, codes []byte, freq []int64) ([]byte, error) {
			hf, err := huffman.EncodeBytesCtx(ctx, dev, codes, freq)
			if err != nil {
				return nil, err
			}
			return pipeHiCRTail.EncodeCtx(ctx, dev, hf)
		},
		decode: func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]byte, error) {
			return pipeHiCR.DecodeCtx(ctx, dev, payload)
		},
	},
	PipeHiTP: {
		name: "TCMS1-BIT1-RRE1",
		encode: func(ctx *arena.Ctx, dev *gpusim.Device, codes []byte, _ []int64) ([]byte, error) {
			return pipeHiTP.EncodeCtx(ctx, dev, codes)
		},
		decode: func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]byte, error) {
			return pipeHiTP.DecodeCtx(ctx, dev, payload)
		},
	},
	PipeHuff: {
		name:       "HF",
		encode:     huffman.EncodeBytesCtx,
		decode:     huffman.DecodeBytesCtx,
		encodeSyms: huffman.EncodeCtx,
		decodeSyms: huffman.DecodeCtx,
	},
	PipeHuffBitcomp: {
		name: "HF+Bitcomp",
		encode: func(ctx *arena.Ctx, dev *gpusim.Device, codes []byte, freq []int64) ([]byte, error) {
			hf, err := huffman.EncodeBytesCtx(ctx, dev, codes, freq)
			if err != nil {
				return nil, err
			}
			return bitcomp.CompressCtx(ctx, dev, hf)
		},
		decode: func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]byte, error) {
			hf, err := bitcomp.DecompressCtx(ctx, dev, payload)
			if err != nil {
				return nil, err
			}
			return huffman.DecodeBytesCtx(ctx, dev, hf)
		},
		encodeSyms: func(ctx *arena.Ctx, dev *gpusim.Device, syms []uint16, alphabet int, freq []int64) ([]byte, error) {
			hf, err := huffman.EncodeCtx(ctx, dev, syms, alphabet, freq)
			if err != nil {
				return nil, err
			}
			return bitcomp.CompressCtx(ctx, dev, hf)
		},
		decodeSyms: func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]uint16, error) {
			hf, err := bitcomp.DecompressCtx(ctx, dev, payload)
			if err != nil {
				return nil, err
			}
			return huffman.DecodeCtx(ctx, dev, hf)
		},
	},
}

// ErrCorrupt reports a malformed container.
var ErrCorrupt = errors.New("core: corrupt stream")

var magic = [4]byte{'c', 'S', 'Z', 'h'}

const version = 1

// Predictor selects the lossy decomposition stage.
type Predictor uint8

// Predictor kinds.
const (
	PredInterp Predictor = iota
	PredLorenzo
)

// Pipeline selects the lossless encoding stage.
type Pipeline uint8

// Pipeline kinds.
const (
	// PipeHiCR is HF-RRE4-TCMS8-RZE1 (cuSZ-Hi CR mode, Fig. 7 top).
	PipeHiCR Pipeline = iota
	// PipeHiTP is TCMS1-BIT1-RRE1 (cuSZ-Hi TP mode, Fig. 7 bottom).
	PipeHiTP
	// PipeHuff is Huffman only (cuSZ-I, cuSZ-L).
	PipeHuff
	// PipeHuffBitcomp is Huffman + the Bitcomp surrogate (cuSZ-IB).
	PipeHuffBitcomp
)

func (p Pipeline) String() string {
	if e, ok := pipelines[p]; ok {
		return e.name
	}
	return fmt.Sprintf("Pipeline(%d)", uint8(p))
}

// Options configures a compressor assembly.
type Options struct {
	Name      string // display name for reports
	Predictor Predictor
	Interp    interp.Config // used when Predictor == PredInterp
	// GlobalInterp expands the interpolation blocks to cover the whole
	// domain, removing block-boundary spline fallbacks — the CPU-style
	// (SZ3/QoZ) configuration that trades parallelism for prediction
	// quality (§1 of the paper contrasts these regimes).
	GlobalInterp bool
	AutoTune     bool // run §5.1.3 tuning before compressing
	Reorder      bool // apply Eq. 3 level-order code reordering
	Pipeline     Pipeline
}

// HiCR returns the cuSZ-Hi compression-ratio-preferred assembly.
func HiCR() Options {
	return Options{Name: "cuSZ-Hi-CR", Predictor: PredInterp, Interp: interp.HiConfig(),
		AutoTune: true, Reorder: true, Pipeline: PipeHiCR}
}

// HiTP returns the cuSZ-Hi throughput-preferred assembly.
func HiTP() Options {
	return Options{Name: "cuSZ-Hi-TP", Predictor: PredInterp, Interp: interp.HiConfig(),
		AutoTune: true, Reorder: true, Pipeline: PipeHiTP}
}

// CuszI returns the cuSZ-I baseline assembly.
func CuszI() Options {
	return Options{Name: "cuSZ-I", Predictor: PredInterp, Interp: interp.CuszIConfig(),
		Pipeline: PipeHuff}
}

// CuszIB returns the cuSZ-IB baseline assembly (cuSZ-I + Bitcomp surrogate).
func CuszIB() Options {
	o := CuszI()
	o.Name = "cuSZ-IB"
	o.Pipeline = PipeHuffBitcomp
	return o
}

// CuszL returns the cuSZ-L (Lorenzo) baseline assembly.
func CuszL() Options {
	return Options{Name: "cuSZ-L", Predictor: PredLorenzo, Pipeline: PipeHuff}
}

// ModeOptions maps a public mode name (the cuszhi Mode strings) to its
// compressor assembly through the codec registry — the single source of
// truth shared by the cuszhi facade, the streaming subsystem and the CLI.
func ModeOptions(name string) (Options, error) {
	c, ok := CodecByName(name)
	if !ok {
		return Options{}, fmt.Errorf("core: unknown mode %q", name)
	}
	oc, ok := c.(optioned)
	if !ok {
		return Options{}, fmt.Errorf("core: codec %q exposes no Options assembly", name)
	}
	return oc.Options(), nil
}

// SZ3Like returns a CPU-style high-ratio configuration: the cuSZ-Hi
// predictor with domain-global interpolation blocks (no block-boundary
// fallbacks, like SZ3/QoZ), auto-tuning, reordering and the CR pipeline.
// It is the upper reference point the paper's introduction compares GPU
// compressors against.
func SZ3Like() Options {
	o := HiCR()
	o.Name = "SZ3-like"
	o.GlobalInterp = true
	return o
}

// AblationVariants returns the incremental feature stack of Table 5:
// cuSZ-IB, +new partition & anchor, +quant-code reorder, +MD interp &
// auto-tune, and the full cuSZ-Hi-CR.
func AblationVariants() []Options {
	base := CuszIB()
	base.Name = "cuSZ-IB"

	v1 := base
	v1.Name = "+partition/anchor"
	v1.Interp = interp.HiConfig() // 17³ blocks, stride-16 anchors
	for i := range v1.Interp.PerLevel {
		v1.Interp.PerLevel[i] = interp.LevelConfig{Scheme: interp.Seq1DXYZ, Spline: interp.Cubic}
	}

	v2 := v1
	v2.Name = "+quant reorder"
	v2.Reorder = true

	v3 := v2
	v3.Name = "+MD & auto-tune"
	v3.AutoTune = true

	v4 := HiCR()
	v4.Name = "cuSZ-Hi-CR"
	return []Options{base, v1, v2, v3, v4}
}

// ---------------------------------------------------------------------------
// Compression.

// CompressCtx encodes data (dims slowest-first) under absolute error bound
// eb into a one-shot container, drawing working memory from ctx (nil
// allocates). The returned container is always a fresh allocation owned
// by the caller; only internal scratch is pooled.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64, opts Options) ([]byte, error) {
	if eb <= 0 || math.IsInf(eb, 0) || math.IsNaN(eb) {
		return nil, fmt.Errorf("core: invalid error bound %v", eb)
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("core: invalid dims %v", dims)
		}
		total *= d
	}
	if total != len(data) {
		return nil, fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
	}
	// Header and predictor sections go into the context's prefix buffer;
	// the predictor then makes the container once its payload is known.
	out := prefixBuf(ctx)[:0]
	out = append(out, magic[:]...)
	out = append(out, version, byte(opts.Predictor))
	out = bitio.AppendUvarint(out, uint64(len(dims)))
	for _, d := range dims {
		out = bitio.AppendUvarint(out, uint64(d))
	}
	out = bitio.AppendUint64(out, math.Float64bits(eb))
	pc, ok := predictors[opts.Predictor]
	if !ok {
		return nil, fmt.Errorf("core: unknown predictor %d", opts.Predictor)
	}
	return pc.compress(ctx, dev, out, data, dims, eb, opts)
}

// prefixKey holds each context's container-prefix buffer.
var prefixKey = arena.NewAuxKey()

// prefixBuf returns ctx's container-prefix buffer (nil without a context):
// the header and predictor sections are appended to it before the payload
// is known, so that the container itself can be made at its exact size.
func prefixBuf(ctx *arena.Ctx) []byte {
	if p, ok := ctx.Aux(prefixKey).(*[]byte); ok {
		return *p
	}
	return nil
}

// finishContainer returns the container prefix, then the payload's length
// and the payload, in one allocation of exactly its size. prefix goes back
// to ctx for the next container.
func finishContainer(ctx *arena.Ctx, prefix, payload []byte) []byte {
	out := make([]byte, 0, len(prefix)+bitio.UvarintLen(uint64(len(payload)))+len(payload))
	out = append(out, prefix...)
	out = bitio.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	p, ok := ctx.Aux(prefixKey).(*[]byte)
	if !ok {
		p = new([]byte)
		ctx.SetAux(prefixKey, p)
	}
	*p = prefix[:0]
	return out
}

// encodeCodes runs the lossless pipeline over the quant codes. freq, when
// non-nil, is the code histogram accumulated during quantization; pipelines
// whose first stage is the Huffman coder consume it instead of re-scanning
// the codes (the quantize+histogram fusion).
func encodeCodes(ctx *arena.Ctx, dev *gpusim.Device, codes []byte, freq []int64, p Pipeline) ([]byte, error) {
	e, ok := pipelines[p]
	if !ok {
		return nil, fmt.Errorf("core: unknown pipeline %d", p)
	}
	return e.encode(ctx, dev, codes, freq)
}

func decodeCodes(ctx *arena.Ctx, dev *gpusim.Device, payload []byte, p Pipeline) ([]byte, error) {
	e, ok := pipelines[p]
	if !ok {
		return nil, fmt.Errorf("core: unknown pipeline %d: %w", p, ErrCorrupt)
	}
	return e.decode(ctx, dev, payload)
}

func compressInterp(ctx *arena.Ctx, dev *gpusim.Device, out []byte, data []float32, dims []int, eb float64, opts Options) ([]byte, error) {
	cfg := opts.Interp
	g := interp.NewGrid(dims)
	if opts.GlobalInterp {
		grow := func(n int) int {
			b := cfg.AnchorStride
			for b < n-1 {
				b += cfg.AnchorStride
			}
			return b
		}
		cfg.BlockZ = grow(g.Nz)
		cfg.BlockY = grow(g.Ny)
		cfg.BlockX = grow(g.Nx)
	}
	if opts.AutoTune {
		cfg.PerLevel = interp.AutoTune(dev, data, g, cfg, interp.DefaultSampleFraction)
	}
	res, err := interp.CompressCtx(ctx, dev, data, g, cfg, eb)
	if err != nil {
		return nil, err
	}
	// Predictor header.
	reorder := byte(0)
	if opts.Reorder {
		reorder = 1
	}
	out = append(out, byte(opts.Pipeline), reorder)
	out = bitio.AppendUvarint(out, uint64(cfg.AnchorStride))
	out = bitio.AppendUvarint(out, uint64(cfg.BlockZ))
	out = bitio.AppendUvarint(out, uint64(cfg.BlockY))
	out = bitio.AppendUvarint(out, uint64(cfg.BlockX))
	out = bitio.AppendUvarint(out, uint64(len(cfg.PerLevel)))
	for _, lc := range cfg.PerLevel {
		out = append(out, byte(lc.Scheme), byte(lc.Spline))
	}
	// Anchors.
	anchorBytes := ctx.Bytes(4 * len(res.Anchors))
	for i, v := range res.Anchors {
		binary.LittleEndian.PutUint32(anchorBytes[4*i:], math.Float32bits(v))
	}
	out = bitio.AppendUvarint(out, uint64(len(anchorBytes)))
	out = append(out, anchorBytes...)
	// Outliers.
	out = res.Outliers.Serialize(out)
	// Codes, optionally reordered, through the lossless pipeline.
	codes := res.Codes
	if opts.Reorder {
		reordered := ctx.Bytes(len(codes))
		quant.Gather(dev, dims, cfg.AnchorStride, codes, reordered)
		codes = reordered
	}
	payload, err := encodeCodes(ctx, dev, codes, res.Freq, opts.Pipeline)
	if err != nil {
		return nil, err
	}
	return finishContainer(ctx, out, payload), nil
}

func compressLorenzo(ctx *arena.Ctx, dev *gpusim.Device, out []byte, data []float32, dims []int, eb float64, opts Options) ([]byte, error) {
	g := lorenzo.NewGrid(dims)
	res, err := lorenzo.CompressCtx(ctx, dev, data, g, eb)
	if err != nil {
		return nil, err
	}
	out = append(out, byte(opts.Pipeline))
	out = bitio.AppendUvarint(out, uint64(len(res.Escapes)))
	for _, e := range res.Escapes {
		out = bitio.AppendUvarint(out, bitio.ZigZag(e))
	}
	out = res.ValOutliers.Serialize(out)
	e, ok := pipelines[opts.Pipeline]
	if !ok || e.encodeSyms == nil {
		return nil, fmt.Errorf("core: pipeline %v unsupported with the Lorenzo predictor", opts.Pipeline)
	}
	payload, err := e.encodeSyms(ctx, dev, res.Codes, lorenzo.Alphabet, res.Freq)
	if err != nil {
		return nil, err
	}
	return finishContainer(ctx, out, payload), nil
}

// ---------------------------------------------------------------------------
// Decompression.

// DecompressCtx decodes any container, one-shot or chunked, returning the
// reconstructed field and its dims, drawing working memory from ctx (nil
// allocates). A chunked container is indexed by OpenIndex and decoded by
// DecodePlanes over all its planes, the driver random access uses too.
// With a non-nil ctx the returned field and dims are context scratch,
// valid until the next ctx.Reset — copy them out before recycling the
// context.
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, blob []byte) ([]float32, []int, error) {
	if ver, _ := SniffVersion(blob); ver < version2 || ver > version5 {
		return decompressPlanes(ctx, dev, blob, 0, math.MaxInt)
	}
	_, ix, err := OpenIndex(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, nil, err
	}
	field, err := ix.DecodePlanes(ctx, dev, nil, 0, ix.H.Dims[0], nil)
	if err != nil {
		return nil, nil, err
	}
	return field, ix.H.Dims, nil
}

// v1Header is a one-shot (v1) container's header.
type v1Header struct {
	pred  Predictor
	dims  []int
	total int
	eb    float64
	off   int // where the payload starts
}

// parseV1Header is the one v1 header parser: magic, version, predictor,
// at most 8 dims of at most 2^31 each and 2^33 in total, and a positive,
// finite eb. The dims are drawn from ctx (nil allocates).
func parseV1Header(ctx *arena.Ctx, blob []byte) (v1Header, error) {
	if len(blob) < 6 || !bytes.Equal(blob[:4], magic[:]) {
		return v1Header{}, ErrCorrupt
	}
	if blob[4] != version {
		// An unknown version byte is wire data, not API misuse: the standing
		// invariant says it must surface as ErrCorrupt, never a bare error.
		return v1Header{}, fmt.Errorf("core: unsupported version %d: %w", blob[4], ErrCorrupt)
	}
	h := v1Header{pred: Predictor(blob[5]), total: 1, off: 6}
	nd, n := bitio.Uvarint(blob[h.off:])
	if n == 0 || nd == 0 || nd > 8 {
		return v1Header{}, ErrCorrupt
	}
	h.off += n
	h.dims = ctx.Ints(int(nd))
	for i := range h.dims {
		v, n := bitio.Uvarint(blob[h.off:])
		if n == 0 || v == 0 || v > 1<<31 {
			return v1Header{}, ErrCorrupt
		}
		if h.total > (1<<33)/int(v) {
			return v1Header{}, ErrCorrupt // checked before the product, which could wrap
		}
		h.off += n
		h.dims[i] = int(v)
		h.total *= int(v)
	}
	if h.off+8 > len(blob) {
		return v1Header{}, ErrCorrupt
	}
	h.eb = math.Float64frombits(binary.LittleEndian.Uint64(blob[h.off:]))
	h.off += 8
	if !(h.eb > 0) || math.IsInf(h.eb, 0) {
		return v1Header{}, ErrCorrupt
	}
	return h, nil
}

// decompressPlanes decodes planes [lo, min(hi, dims[0])) along dims[0] of
// a one-shot (v1) container: it returns those planes and the whole field's
// dims. An interpolation payload reconstructs only the blocks owning the
// planes; every other payload decodes whole and is sliced.
func decompressPlanes(ctx *arena.Ctx, dev *gpusim.Device, blob []byte, lo, hi int) ([]float32, []int, error) {
	h, err := parseV1Header(ctx, blob)
	if err != nil {
		return nil, nil, err
	}
	pc, ok := predictors[h.pred]
	if !ok {
		return nil, nil, ErrCorrupt // unknown predictor wire value
	}
	if hi, err = clampPlanes(h.dims, lo, hi); err != nil {
		return nil, nil, err
	}
	recon, dims, err := pc.decompress(ctx, dev, blob, h.off, h.dims, h.total, h.eb, lo, hi)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		// The predictor and pipeline decoders judge wire bytes, so what
		// they reject (a bad outlier section, a bad lossless stream) is
		// corruption too.
		err = fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return recon, dims, err
}

// clampPlanes clamps hi to dims[0] and checks that [lo, hi) is a
// non-empty run of planes. The request comes from a chunk frame's plane
// count, so a payload lacking the planes is corrupt.
func clampPlanes(dims []int, lo, hi int) (int, error) {
	hi = min(hi, dims[0])
	if lo < 0 || lo >= hi {
		return 0, fmt.Errorf("core: plane range %d:%d outside payload with %d planes: %w", lo, hi, dims[0], ErrCorrupt)
	}
	return hi, nil
}

// planes returns planes [lo, hi) along dims[0] of field.
func planes(field []float32, dims []int, lo, hi int) []float32 {
	ps := planeSize(dims)
	return field[lo*ps : hi*ps]
}

func decompressInterp(ctx *arena.Ctx, dev *gpusim.Device, blob []byte, off int, dims []int, total int, eb float64, lo, hi int) ([]float32, []int, error) {
	if off+2 > len(blob) {
		return nil, nil, ErrCorrupt
	}
	pipe := Pipeline(blob[off])
	reorder := blob[off+1] == 1
	off += 2
	readUv := func() (int, bool) {
		v, n := bitio.Uvarint(blob[off:])
		if n == 0 || v > 1<<31 {
			return 0, false
		}
		off += n
		return int(v), true
	}
	stride, ok := readUv()
	if !ok {
		return nil, nil, ErrCorrupt
	}
	bz, ok := readUv()
	if !ok {
		return nil, nil, ErrCorrupt
	}
	by, ok := readUv()
	if !ok {
		return nil, nil, ErrCorrupt
	}
	bx, ok := readUv()
	if !ok {
		return nil, nil, ErrCorrupt
	}
	nLevels, ok := readUv()
	if !ok || nLevels > 32 || off+2*nLevels > len(blob) {
		return nil, nil, ErrCorrupt
	}
	cfg := interp.Config{AnchorStride: stride, BlockZ: bz, BlockY: by, BlockX: bx}
	for i := 0; i < nLevels; i++ {
		sch := interp.Scheme(blob[off])
		sp := interp.Spline(blob[off+1])
		off += 2
		if sch > interp.MD || sp > interp.Cubic {
			return nil, nil, ErrCorrupt
		}
		cfg.PerLevel = append(cfg.PerLevel, interp.LevelConfig{Scheme: sch, Spline: sp})
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, ErrCorrupt
	}
	g := interp.NewGrid(dims)
	anchorLen, ok := readUv()
	if !ok || off+anchorLen > len(blob) || anchorLen != 4*g.AnchorCount(stride) {
		return nil, nil, ErrCorrupt
	}
	anchors := ctx.F32(anchorLen / 4)
	for i := range anchors {
		anchors[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[off+4*i:]))
	}
	off += anchorLen
	var outliers quant.Outliers
	used, err := quant.ParseOutliersInto(ctx, &outliers, blob[off:])
	if err != nil {
		return nil, nil, err
	}
	off += used
	payLen, ok := readUv()
	if !ok || off+payLen > len(blob) {
		return nil, nil, ErrCorrupt
	}
	codes, err := decodeCodes(ctx, dev, blob[off:off+payLen], pipe)
	if err != nil {
		return nil, nil, err
	}
	if len(codes) != total {
		return nil, nil, ErrCorrupt
	}
	if reorder {
		natural := ctx.Bytes(total)
		quant.Scatter(dev, dims, stride, codes, natural)
		codes = natural
	}
	res := &interp.Result{Codes: codes, Anchors: anchors, Outliers: &outliers}
	// NewGrid folds dims[:len-2] into z, so from rank 3 up a plane along
	// dims[0] is a whole number of z-planes; below that, decode all of z
	// and slice.
	z0, z1 := 0, g.Nz
	if len(dims) >= 3 {
		k := g.Nz / dims[0]
		z0, z1 = lo*k, hi*k
	}
	recon, err := interp.DecompressPlanesCtx(ctx, dev, res, g, cfg, eb, z0, z1)
	if err != nil {
		// Everything DecompressPlanesCtx rejects came off the wire, such as
		// an outlier code whose value the outlier section lacks.
		return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(dims) < 3 {
		recon = planes(recon, dims, lo, hi)
	}
	return recon, dims, nil
}

func decompressLorenzo(ctx *arena.Ctx, dev *gpusim.Device, blob []byte, off int, dims []int, total int, eb float64, lo, hi int) ([]float32, []int, error) {
	if off >= len(blob) {
		return nil, nil, ErrCorrupt
	}
	pipe := Pipeline(blob[off])
	off++
	nEsc64, n := bitio.Uvarint(blob[off:])
	if n == 0 || int(nEsc64) < 0 || int(nEsc64) > total {
		return nil, nil, ErrCorrupt
	}
	off += n
	escapes := ctx.I64(int(nEsc64))
	for i := range escapes {
		z, n := bitio.Uvarint(blob[off:])
		if n == 0 {
			return nil, nil, ErrCorrupt
		}
		off += n
		escapes[i] = bitio.UnZigZag(z)
	}
	var res lorenzo.Result
	res.Escapes = escapes
	used, err := quant.ParseOutliersInto(ctx, &res.ValOutliers, blob[off:])
	if err != nil {
		return nil, nil, err
	}
	off += used
	payLen64, n := bitio.Uvarint(blob[off:])
	// Cap before the int conversion: a huge wire length would overflow
	// negative and slip past the bounds check into a panicking slice.
	if n == 0 || payLen64 > 1<<31 || off+n+int(payLen64) > len(blob) {
		return nil, nil, ErrCorrupt
	}
	off += n
	payload := blob[off : off+int(payLen64)]
	e, ok := pipelines[pipe]
	if !ok || e.decodeSyms == nil {
		return nil, nil, ErrCorrupt
	}
	res.Codes, err = e.decodeSyms(ctx, dev, payload)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Codes) != total {
		return nil, nil, ErrCorrupt
	}
	recon, err := lorenzo.DecompressCtx(ctx, dev, &res, lorenzo.NewGrid(dims), eb)
	if err != nil {
		return nil, nil, err
	}
	return planes(recon, dims, lo, hi), dims, nil
}
