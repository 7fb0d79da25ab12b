// Package bitcomp is an open surrogate for NVIDIA's proprietary Bitcomp
// lossless codec, which cuSZ-IB attaches after Huffman encoding and which
// Table 1 of the paper applies to every compressor's output.
//
// Bitcomp is a lightweight GPU de-redundancy coder. The surrogate captures
// the behaviour that matters in the paper's experiments: a Huffman stream
// over overwhelmingly-zero quantization codes is runs of the zero
// codeword's bits (sub-1-bit/symbol redundancy that entropy coding cannot
// remove), and Bitcomp recovers nearly all of it; already-de-redundated
// streams (cuSZ-Hi output, random data) stay at ratio ~1.
//
// The scheme: byte-wise delta + zigzag (turning byte runs into zeros),
// then zero-elimination with a recursively compressed presence bitmap
// (internal/lccodec's RZE1), with a raw-passthrough fallback whenever that
// would not shrink the input.
//
// The *Ctx entry points thread a reusable arena.Ctx through the RZE
// pipeline stages, so warm contexts re-code stream after stream with
// near-zero heap allocations.
package bitcomp

import (
	"errors"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
	"repro/internal/lccodec"
)

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("bitcomp: corrupt stream")

const (
	modeRaw     = 0x00
	modeDeltaZE = 0x01
)

var rze = lccodec.MustParse("DIFFMS1-RZE1")

// CompressCtx encodes src, drawing pipeline stage buffers from ctx (nil
// allocates). The returned stream is a fresh allocation owned by the
// caller.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, src []byte) ([]byte, error) {
	enc, err := rze.EncodeCtx(ctx, dev, src)
	if err != nil {
		return nil, err
	}
	body := src
	mode := byte(modeRaw)
	if len(enc) < len(src) {
		body = enc
		mode = modeDeltaZE
	}
	out := make([]byte, 0, len(body)+12)
	out = bitio.AppendUvarint(out, uint64(len(src)))
	out = append(out, mode)
	return append(out, body...), nil
}

// DecompressCtx reverses CompressCtx. With a non-nil ctx the returned
// stream is context scratch, valid until the next ctx.Reset.
//
//cuszhi:hotpath
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []byte) ([]byte, error) {
	origLen64, n := bitio.Uvarint(data)
	if n == 0 || n >= len(data)+1 {
		return nil, ErrCorrupt
	}
	// Cap before the int conversion: on 32-bit platforms a 2^32-scale
	// declared length would silently truncate instead of failing.
	origLen, lok := bitio.IntLen(origLen64)
	if !lok {
		return nil, ErrCorrupt
	}
	if n >= len(data) {
		if origLen == 0 && n == len(data) {
			return nil, nil
		}
		return nil, ErrCorrupt
	}
	mode := data[n]
	body := data[n+1:]
	switch mode {
	case modeRaw:
		if len(body) != origLen {
			return nil, ErrCorrupt
		}
		out := ctx.Bytes(origLen)
		copy(out, body)
		return out, nil
	case modeDeltaZE:
		out, err := rze.DecodeCtx(ctx, dev, body)
		if err != nil {
			return nil, err
		}
		if len(out) != origLen {
			return nil, ErrCorrupt
		}
		return out, nil
	}
	return nil, ErrCorrupt
}

// Ratio returns the Bitcomp-surrogate compression ratio on src, the metric
// reported in Table 1.
func Ratio(dev *gpusim.Device, src []byte) (float64, error) {
	if len(src) == 0 {
		return 1, nil
	}
	enc, err := CompressCtx(nil, dev, src)
	if err != nil {
		return 0, err
	}
	return float64(len(src)) / float64(len(enc)), nil
}
