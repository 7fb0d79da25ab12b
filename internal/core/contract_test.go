package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gpusim"
)

// contractCase is one bound-contract input: a field on contractDims and
// the absolute bound it is written under.
type contractCase struct {
	name string
	data []float32
	eb   float64
}

var contractDims = []int{20, 33, 40}

// contractCases builds the seven generators of the bound contract on a
// sine field: NaN sprinkles, an all-NaN field, ±Inf sprinkles, denormals
// at a bound below their spacing, magnitudes whose float32 ulp exceeds
// the bound, a constant field, and a bound larger than the range.
func contractCases() []contractCase {
	n := contractDims[0] * contractDims[1] * contractDims[2]
	sine := func(scale, offset float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(offset + scale*math.Sin(float64(i)*0.013)*math.Cos(float64(i)*0.0007))
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	nanSprinkle := sine(1, 0)
	for i := 0; i < 273; i++ {
		nanSprinkle[rng.Intn(n)] = float32(math.NaN())
	}
	allNaN := make([]float32, n)
	for i := range allNaN {
		allNaN[i] = float32(math.NaN())
	}
	inf := sine(1, 0)
	for i := 0; i < 100; i++ {
		inf[rng.Intn(n)] = float32(math.Inf(1 - 2*(i%2)))
	}
	denormal := make([]float32, n)
	for i := range denormal {
		denormal[i] = float32(rng.Float64() * 1e-40)
	}
	constant := make([]float32, n)
	for i := range constant {
		constant[i] = 3.7
	}
	return []contractCase{
		{"nan-sprinkle", nanSprinkle, 1e-3},
		{"all-nan", allNaN, 1e-3},
		{"inf", inf, 1e-3},
		{"denormal", denormal, 1e-43},
		{"ulp-above-eb", sine(1e3, 1e6), 1e-3}, // float32 ulp at 1e6 is 1/16
		{"constant", constant, 1e-3},
		{"eb-above-range", sine(1, 0), 10},
	}
}

// checkContract reports the first point of recon that breaks the bound
// contract for data: a finite value must decode within eb, a NaN as NaN,
// and an infinity as the same infinity.
func checkContract(data, recon []float32, eb float64) error {
	if len(recon) != len(data) {
		return fmt.Errorf("decoded %d values, want %d", len(recon), len(data))
	}
	for i, v := range data {
		x, r := float64(v), float64(recon[i])
		switch {
		case math.IsNaN(x):
			if !math.IsNaN(r) {
				return fmt.Errorf("point %d: NaN decoded as %v", i, r)
			}
		case math.IsInf(x, 0):
			if r != x {
				return fmt.Errorf("point %d: %v decoded as %v", i, x, r)
			}
		case !(math.Abs(x-r) <= eb):
			return fmt.Errorf("point %d: %v decoded as %v, error %g > %g", i, x, r, math.Abs(x-r), eb)
		}
	}
	return nil
}

// TestBoundContract is the write-side promise behind every read path: for
// codec IDs 1–8, written one-shot (the codec's own payload) and chunked
// (format v5, 8-plane shards), a nil-error compress decodes every point
// within the bound, NaN as NaN and ±Inf as the same infinity. Refusing
// the input with an error is the only other legal outcome.
func TestBoundContract(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(2)
	for _, tc := range contractCases() {
		checkCodecsContract(t, dev, tc.name, tc.data, contractDims, tc.eb)
	}
}

// checkCodecsContract runs the bound contract for codec IDs 1–8, one-shot
// and chunked v5 with 8-plane shards, on one field.
func checkCodecsContract(t *testing.T, dev *gpusim.Device, name string, data []float32, dims []int, eb float64) {
	t.Helper()
	for id := CodecHiCR; id <= CodecSZx; id++ {
		cd, ok := CodecByID(id)
		if !ok {
			t.Fatalf("codec id %d not registered", id)
		}
		label := fmt.Sprintf("%s/%s %v eb %g", cd.Name(), name, dims, eb)
		if payload, err := cd.Compress(nil, dev, data, dims, eb); err == nil {
			recon, _, err := cd.Decompress(nil, dev, payload)
			if err != nil {
				t.Errorf("%s one-shot: nil-error write fails to decode: %v", label, err)
			} else if err := checkContract(data, recon, eb); err != nil {
				t.Errorf("%s one-shot: %v", label, err)
			}
		}
		blob, err := CompressChunked(dev, data, dims, 8, EncodeSpec{Version: version5, EB: eb, Codec: cd})
		if err != nil {
			continue
		}
		recon, _, err := DecompressCtx(nil, dev, blob)
		if err != nil {
			t.Errorf("%s chunked: nil-error write fails to decode: %v", label, err)
		} else if err := checkContract(data, recon, eb); err != nil {
			t.Errorf("%s chunked: %v", label, err)
		}
	}
}

// FuzzBoundContract runs the bound contract on mutated contract cases:
// one of the seven generators, cut to fuzzed dims of rank 1 to 3 (or kept
// at contractDims), its bound scaled by up to 10^±8, and up to 64 values
// overwritten with arbitrary float32 bits (NaN payloads, ±Inf, denormals
// and huge magnitudes included). Every codec ID 1–8, one-shot and chunked
// v5, must keep the contract or refuse the input.
func FuzzBoundContract(f *testing.F) {
	cases := contractCases()
	for i := range cases {
		f.Add(uint8(i), uint32(0), int8(0), []byte{})
	}
	f.Add(uint8(0), uint32(0x01090c11), int8(-40), []byte{0, 7, 0x7f, 0x80, 0, 0, 1, 0, 0xff, 0x80, 0, 0})
	f.Add(uint8(2), uint32(0x02251a05), int8(64), []byte{0, 3, 0, 0, 0, 1, 0, 9, 0x7f, 0xc0, 0, 1})
	f.Add(uint8(4), uint32(0x03000677), int8(-128), []byte{})
	dev := gpusim.New(2)
	f.Fuzz(func(t *testing.T, gen uint8, shape uint32, ebShift int8, muts []byte) {
		tc := cases[int(gen)%len(cases)]
		dims := contractDims
		a, b, c := int(shape&0xff), int(shape>>8&0xff), int(shape>>16&0xff)
		switch shape >> 24 % 4 {
		case 1:
			dims = []int{1 + a%contractDims[0], 1 + b%contractDims[1], 1 + c%contractDims[2]}
		case 2:
			dims = []int{1 + a%40, 1 + b%64}
		case 3:
			dims = []int{1 + (a<<8|b)%2000}
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := slices.Clone(tc.data[:n])
		for k := 0; k+5 < len(muts) && k < 6*64; k += 6 {
			data[(int(muts[k])<<8|int(muts[k+1]))%n] = math.Float32frombits(binary.BigEndian.Uint32(muts[k+2:]))
		}
		eb := tc.eb * math.Pow(10, float64(ebShift)/16)
		checkCodecsContract(t, dev, tc.name, data, dims, eb)
	})
}
