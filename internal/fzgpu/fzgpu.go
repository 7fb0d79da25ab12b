// Package fzgpu reimplements the FZ-GPU baseline (Zhang et al., 2023):
// cuSZ's dual-quantization Lorenzo decomposition with the Huffman stage
// replaced by a throughput-oriented bit-shuffle plus zero-word elimination,
// trading compression ratio for speed (Fig. 2 of the cuSZ-Hi paper).
//
// The *Ctx entry points draw every working buffer (lattice, code bytes,
// escape/outlier collectors, pipeline stage buffers) from a reusable
// arena.Ctx, so a warm context compresses and decompresses shard after
// shard with near-zero heap allocations — the property the format-v5
// chunk-codec adapter in internal/core relies on.
package fzgpu

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/lccodec"
	"repro/internal/lorenzo"
	"repro/internal/quant"
)

// ErrCorrupt reports a malformed container.
var ErrCorrupt = errors.New("fzgpu: corrupt stream")

var pipeline = lccodec.MustParse("BIT1-RZE4")

// CompressCtx encodes data (any dims, slowest first) under absolute bound
// eb, drawing working memory from ctx (nil allocates). The returned
// container is a fresh allocation owned by the caller; only internal
// scratch is pooled.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error) {
	g := lorenzo.NewGrid(dims)
	res, err := lorenzo.CompressCtx(ctx, dev, data, g, eb)
	if err != nil {
		return nil, err
	}
	// Re-center codes around zero (zigzag) so the bit shuffle concentrates
	// ones into few planes, then serialize little-endian and de-redundate.
	center := int64(lorenzo.Radius + 1)
	codes := res.Codes
	codeBytes := ctx.Bytes(2 * len(codes))
	dev.LaunchChunks(len(codes), 1<<16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zz := bitio.ZigZag(int64(codes[i]) - center)
			binary.LittleEndian.PutUint16(codeBytes[2*i:], uint16(zz))
		}
	})
	payload, err := pipeline.EncodeCtx(ctx, dev, codeBytes)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(payload)+16*len(res.Escapes)+8*res.ValOutliers.Len()+64)
	out = bitio.AppendUvarint(out, uint64(len(dims)))
	for _, d := range dims {
		out = bitio.AppendUvarint(out, uint64(d))
	}
	out = bitio.AppendUint64(out, math.Float64bits(eb))
	out = bitio.AppendUvarint(out, uint64(len(res.Escapes)))
	for _, e := range res.Escapes {
		out = bitio.AppendUvarint(out, bitio.ZigZag(e))
	}
	out = res.ValOutliers.Serialize(out)
	out = bitio.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...), nil
}

// DecompressCtx reverses CompressCtx, returning the field and the dims the
// container self-describes (slowest first). With a non-nil ctx the
// returned field and dims are context scratch, valid until the next
// ctx.Reset.
//
//cuszhi:hotpath
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, blob []byte) ([]float32, []int, error) {
	nd64, n := bitio.Uvarint(blob)
	if n == 0 || nd64 == 0 || nd64 > 8 {
		return nil, nil, ErrCorrupt
	}
	off := n
	dims := ctx.Ints(int(nd64))
	total := 1
	for i := range dims {
		v, n := bitio.Uvarint(blob[off:])
		if n == 0 || v == 0 || v > 1<<31 {
			return nil, nil, ErrCorrupt
		}
		off += n
		dims[i] = int(v)
		total *= int(v)
		if total <= 0 || total > 1<<33 {
			return nil, nil, ErrCorrupt
		}
	}
	if off+8 > len(blob) {
		return nil, nil, ErrCorrupt
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[off:]))
	off += 8
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, nil, ErrCorrupt
	}
	nEsc64, n := bitio.Uvarint(blob[off:])
	if n == 0 || nEsc64 > uint64(total) {
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
	var outliers quant.Outliers
	used, err := quant.ParseOutliersInto(ctx, &outliers, blob[off:])
	if err != nil {
		return nil, nil, err
	}
	off += used
	payLen64, n := bitio.Uvarint(blob[off:])
	// Cap before the int conversion (strictly below 2^31 so the int can
	// never wrap, even on 32-bit): a huge wire length would overflow
	// negative and slip past the bounds check into a panicking slice.
	if n == 0 || payLen64 >= 1<<31 || off+n+int(payLen64) > len(blob) {
		return nil, nil, ErrCorrupt
	}
	off += n
	codeBytes, err := pipeline.DecodeCtx(ctx, dev, blob[off:off+int(payLen64)])
	if err != nil {
		return nil, nil, err
	}
	if len(codeBytes) != 2*total {
		return nil, nil, ErrCorrupt
	}
	codes := ctx.U16(total)
	center := int64(lorenzo.Radius + 1)
	dev.LaunchChunks(total, 1<<16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zz := uint64(binary.LittleEndian.Uint16(codeBytes[2*i:]))
			codes[i] = uint16(bitio.UnZigZag(zz) + center)
		}
	})
	//lint:ignore hotpathalloc one stack-escaping descriptor per op, amortized over the field
	res := &lorenzo.Result{Codes: codes, Escapes: escapes, ValOutliers: outliers}
	recon, err := lorenzo.DecompressCtx(ctx, dev, res, lorenzo.NewGrid(dims), eb)
	if err != nil {
		return nil, nil, err
	}
	return recon, dims, nil
}
