// Backend chunk codecs: registry adapters that make the alternate
// compressor packages (fzgpu, szp, szx) first-class format-v5 codecs.
//
// Each adapter implements core.Codec over the package's arena-context API
// and emits a self-contained payload that carries its own dims and error
// bound, so a v5 chunk decodes with no help from the outer container
// header. The adapters expose no Options — they are not predictor/pipeline
// assemblies — so v5 frames carry a zero codec-mode byte for them and
// frame validation rests on the codec ID plus its footer cross-check
// (DecompressShardCtx already skips the v1-payload checks for codecs
// without Options).
//
// Payload layouts:
//
//	fzgpu: the fzgpu container verbatim (it already self-describes dims+eb).
//	szp:   uvarint ndims, dims[ndims], then the szp container (which
//	       carries the flat element count and eb); the dims product must
//	       equal that count.
//	szx:   same dims prefix over the szx container.
//
// Wire IDs are append-only, continuing the assembly numbering.
package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/fzgpu"
	"repro/internal/gpusim"
	"repro/internal/szp"
	"repro/internal/szx"
)

// Wire IDs of the backend chunk codecs (append-only, like the assemblies).
const (
	CodecFzGPU CodecID = 6 // FZ-GPU: Lorenzo dual-quant + bit-shuffle/RZE
	CodecSZp   CodecID = 7 // cuSZp2 surrogate: 1-D delta + per-block packing
	CodecSZx   CodecID = 8 // cuSZx/SZx surrogate: constant/truncated blocks
)

// backendCodec adapts one alternate backend package to the Codec
// interface. All three backends take absolute error bounds only, which the
// selection paths guarantee: SelectShardCodecPolicy and AutoSelect always
// score under a resolved absolute bound (relative-EB streams derive it
// from the shard's value range before scoring — see EncodeShard).
type backendCodec struct {
	id         CodecID
	name       string
	compress   func(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error)
	decompress func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error)
}

func (b *backendCodec) Name() string { return b.name }
func (b *backendCodec) ID() CodecID  { return b.id }

func (b *backendCodec) Compress(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error) {
	return b.compress(ctx, dev, data, dims, eb)
}

func (b *backendCodec) Decompress(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error) {
	recon, rdims, err := b.decompress(ctx, dev, payload)
	if err != nil {
		// Hostile or truncated backend payloads must surface as ErrCorrupt
		// (never a panic); keep the backend's own diagnosis in the chain.
		return nil, nil, fmt.Errorf("core: %s payload: %v: %w", b.name, err, ErrCorrupt)
	}
	return recon, rdims, nil
}

// appendBackendDims writes the dims prefix shared by the szp/szx payloads.
func appendBackendDims(dst []byte, dims []int) []byte {
	dst = bitio.AppendUvarint(dst, uint64(len(dims)))
	for _, d := range dims {
		dst = bitio.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// parseBackendDims reads the dims prefix back, applying the container-wide
// caps so a hostile prefix fails before any allocation sized by it.
func parseBackendDims(ctx *arena.Ctx, payload []byte) (dims []int, total, off int, err error) {
	nd64, n := bitio.Uvarint(payload)
	if n == 0 || nd64 == 0 || nd64 > 8 {
		return nil, 0, 0, ErrCorrupt
	}
	off = n
	dims = ctx.Ints(int(nd64))
	total = 1
	for i := range dims {
		v, n := bitio.Uvarint(payload[off:])
		if n == 0 || v == 0 || v > 1<<31 {
			return nil, 0, 0, ErrCorrupt
		}
		off += n
		dims[i] = int(v)
		total *= int(v)
		if total <= 0 || total > 1<<33 {
			return nil, 0, 0, ErrCorrupt
		}
	}
	return dims, total, off, nil
}

// flatBackend builds the compress/decompress pair for a backend whose own
// container is one-dimensional (szp, szx): the adapter prefixes the dims
// and cross-checks their product against the backend's element count.
func flatBackend(
	compress func(ctx *arena.Ctx, dev *gpusim.Device, data []float32, eb float64) ([]byte, error),
	decompress func(ctx *arena.Ctx, dev *gpusim.Device, blob []byte) ([]float32, error),
) (
	func(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error),
	func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error),
) {
	comp := func(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error) {
		total := 1
		for _, d := range dims {
			if d <= 0 {
				return nil, fmt.Errorf("core: invalid dims %v", dims)
			}
			total *= d
		}
		if len(dims) == 0 || total != len(data) {
			return nil, fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
		}
		blob, err := compress(ctx, dev, data, eb)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, len(blob)+16)
		out = appendBackendDims(out, dims)
		return append(out, blob...), nil
	}
	decomp := func(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error) {
		dims, total, off, err := parseBackendDims(ctx, payload)
		if err != nil {
			return nil, nil, err
		}
		recon, err := decompress(ctx, dev, payload[off:])
		if err != nil {
			return nil, nil, err
		}
		if len(recon) != total {
			return nil, nil, ErrCorrupt
		}
		return recon, dims, nil
	}
	return comp, decomp
}

func init() {
	szpC, szpD := flatBackend(szp.CompressCtx, szp.DecompressCtx)
	szxC, szxD := flatBackend(szx.CompressCtx, szx.DecompressCtx)
	RegisterCodec(&backendCodec{id: CodecFzGPU, name: "fzgpu",
		compress:   fzgpu.CompressCtx,
		decompress: fzgpu.DecompressCtx,
	})
	RegisterCodec(&backendCodec{id: CodecSZp, name: "szp", compress: szpC, decompress: szpD})
	RegisterCodec(&backendCodec{id: CodecSZx, name: "szx", compress: szxC, decompress: szxD})
}
