package quant

import (
	"math"
	"math/rand"
	"testing"
)

// QuantizeRow is TryQuantize over one stride-row, in place: point i has
// value vals[i*step] and prediction preds[i]. On return preds[i] holds the
// point's reconstruction and codes[i] its code (OutlierCode marks an
// outlier), stored the way the interpolation kernel's fused pass stores
// them.
func QuantizeRow(preds []float32, codes []uint8, vals []float32, step int, twoEB float64) {
	for i, j := 0, 0; i < len(preds); i, j = i+1, j+step {
		v := vals[j]
		if c, r, ok := TryQuantize(v, float64(preds[i]), twoEB, twoEB/2); ok {
			preds[i], codes[i] = r, c
			continue
		}
		preds[i], codes[i] = v, OutlierCode
	}
}

// rowCase is one (value, prediction) pair fed to the row quantizer.
type rowCase struct{ val, pred float32 }

// quantizeCases builds the inputs that stress the branchless rounding at
// one error bound: random errors across and beyond the code radius,
// quotients exactly half-way between integers and their float32
// neighbours, and special values.
func quantizeCases(rng *rand.Rand, twoEB float64) []rowCase {
	var cs []rowCase
	for i := 0; i < 4000; i++ {
		pred := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		k := rng.NormFloat64() * float64(rng.Intn(200))
		cs = append(cs, rowCase{float32(float64(pred) + k*twoEB), pred})
	}
	for k := -130; k <= 130; k++ {
		for _, pred := range []float32{0, 1, -3.75, float32(rng.NormFloat64())} {
			v := float32(float64(pred) + (float64(k)+0.5)*twoEB)
			cs = append(cs,
				rowCase{v, pred},
				rowCase{math.Nextafter32(v, float32(math.Inf(1))), pred},
				rowCase{math.Nextafter32(v, float32(math.Inf(-1))), pred})
		}
	}
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	specials := []float32{0, negZero, inf, -inf, float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, 1e-40, -1e-40, 1, -1}
	for _, v := range specials {
		for _, p := range specials {
			cs = append(cs, rowCase{v, p})
		}
	}
	return cs
}

// TestQuantizeRowMatchesQuantize pins the row quantizer to the scalar
// Quantize reference: every point's code, reconstruction bits and outlier
// flag must agree, across error bounds from 1e-9 to 1e2 (powers of two
// among them, where half-way quotients are exact) and strided rows.
func TestQuantizeRowMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ebs := []float64{1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1, 1e2, math.Ldexp(1, -12), math.Ldexp(1, -3), 4}
	for _, eb := range ebs {
		twoEB := 2 * eb
		cs := quantizeCases(rng, twoEB)
		for _, step := range []int{1, 2, 3} {
			vals := make([]float32, len(cs)*step)
			preds := make([]float32, len(cs))
			for i, c := range cs {
				vals[i*step] = c.val
				preds[i] = c.pred
			}
			codes := make([]uint8, len(cs))
			QuantizeRow(preds, codes, vals, step, twoEB)
			for i, c := range cs {
				code, recon, outlier := Quantize(c.val, c.pred, twoEB)
				if codes[i] != code || math.Float32bits(preds[i]) != math.Float32bits(recon) ||
					(codes[i] == OutlierCode) != outlier {
					t.Fatalf("eb %g step %d: Quantize(%v, %v) = (%d, %v, %v), row gives (%d, %v)",
						eb, step, c.val, c.pred, code, recon, outlier, codes[i], preds[i])
				}
			}
		}
	}
}

// TestTryQuantizeBelowHalf pins the rounding at the largest quotient below
// one half, 0.5 − 2⁻⁵⁴, where adding 0.5 itself before truncating would
// round up: value ±d against prediction 0 at a bound just above 2d gives
// exactly that quotient, which must quantize to code ZeroCode as in
// Quantize.
func TestTryQuantizeBelowHalf(t *testing.T) {
	found := 0
	for i := 1; i <= 256; i++ {
		d := float64(i) / 64
		twoEB := math.Nextafter(2*d, math.Inf(1))
		if d/twoEB != 0.5-math.Ldexp(1, -54) {
			continue
		}
		found++
		for _, v := range []float32{float32(d), -float32(d)} {
			code, recon, outlier := Quantize(v, 0, twoEB)
			c, r, ok := TryQuantize(v, 0, twoEB, twoEB/2)
			if !ok {
				c, r = OutlierCode, v
			}
			if c != code || math.Float32bits(r) != math.Float32bits(recon) || !ok != outlier {
				t.Fatalf("value %v, 2eb %v: TryQuantize gives (%d, %v), Quantize (%d, %v)", v, twoEB, c, r, code, recon)
			}
		}
	}
	if found == 0 {
		t.Fatal("no value gave the quotient 0.5 − 2⁻⁵⁴")
	}
}
