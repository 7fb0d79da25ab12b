package cuszhi

import (
	"fmt"
	"math"
)

// Float64 support. Several SDRBench datasets (Miranda, QMCPack) ship as
// doubles; the compressor core operates on float32 (as cuSZ-Hi does on
// GPUs), so the facade converts and accounts for the conversion error
// inside the user's bound: the float32 stage runs with the bound tightened
// by the worst-case conversion error, keeping the end-to-end guarantee
// max|x - x'| <= eb valid for the original doubles.

// f32ConversionErr bounds |float64(float32(v)) - v| over |v| <= maxAbs.
func f32ConversionErr(maxAbs float64) float64 {
	// Half ULP at the magnitude ceiling, plus denormal slack.
	return maxAbs*0x1p-24 + 0x1p-140
}

// CompressF64 encodes double-precision data under a value-range-relative
// error bound. The bound must exceed the float32 conversion error of the
// data's magnitude range.
func (c *Compressor) CompressF64(data []float64, dims []int, relEB float64) ([]byte, error) {
	if relEB <= 0 {
		return nil, fmt.Errorf("cuszhi: relative error bound %v must be positive", relEB)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("cuszhi: empty input")
	}
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if rng == 0 {
		rng = 1
	}
	return c.CompressF64Abs(data, dims, relEB*rng)
}

// CompressF64Abs encodes double-precision data under an absolute bound.
// A finite double outside the float32 range is an error: its float32
// stand-in would be ±Inf.
func (c *Compressor) CompressF64Abs(data []float64, dims []int, absEB float64) ([]byte, error) {
	if absEB <= 0 {
		return nil, fmt.Errorf("cuszhi: absolute error bound %v must be positive", absEB)
	}
	maxAbs := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	conv := f32ConversionErr(maxAbs)
	if conv >= absEB/2 {
		return nil, fmt.Errorf("cuszhi: bound %g is below float32 precision (conversion error %g); compress the doubles losslessly instead", absEB, conv)
	}
	f32 := make([]float32, len(data))
	for i, v := range data {
		f32[i] = float32(v)
		if math.IsInf(float64(f32[i]), 0) && !math.IsInf(v, 0) {
			return nil, fmt.Errorf("cuszhi: value %g at index %d is outside the float32 range", v, i)
		}
	}
	// The float32 stage absorbs the remaining budget.
	return c.CompressAbs(f32, dims, absEB-conv)
}

// DecompressF64 decodes a container produced by CompressF64(Abs) back to
// doubles.
func (c *Compressor) DecompressF64(blob []byte) ([]float64, []int, error) {
	f32, dims, err := c.Decompress(blob)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, len(f32))
	for i, v := range f32 {
		out[i] = float64(v)
	}
	return out, dims, nil
}
