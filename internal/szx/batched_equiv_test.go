package szx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// compressRef is the serial per-value oracle of CompressCtx: a float64
// finite test per value, a math.Abs magnitude scan, and one WriteBits call
// per field of every value.
func compressRef(data []float32, eb float64) []byte {
	n := len(data)
	nBlocks := (n + blockVals - 1) / blockVals
	var lens []int
	var body []byte
	var w bitio.Writer
	for b := 0; b < nBlocks; b++ {
		vals := data[b*blockVals : min((b+1)*blockVals, n)]
		var sum float64
		finite := true
		for _, v := range vals {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				finite = false
				break
			}
			sum += f
		}
		if finite {
			mean := float32(sum / float64(len(vals)))
			constant := true
			for _, v := range vals {
				if math.Abs(float64(v)-float64(mean)) > eb {
					constant = false
					break
				}
			}
			if constant {
				body = append(body, 0x01)
				body = binary.LittleEndian.AppendUint32(body, math.Float32bits(mean))
				lens = append(lens, 5)
				continue
			}
		}
		var maxAbs float32
		for _, v := range vals {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		keep := mantissaBitsFor(maxAbs, eb)
		if !finite {
			keep = 23
		}
		w.Reset()
		w.WriteBits(uint64(keep), 5)
		for _, v := range vals {
			bits := math.Float32bits(v)
			// sign+exponent then the kept high mantissa bits.
			w.WriteBits(uint64(bits>>23), 9)
			if keep > 0 {
				w.WriteBits(uint64(bits>>(23-uint(keep)))&((1<<uint(keep))-1), uint(keep))
			}
		}
		body = append(body, 0x00)
		body = append(body, w.Bytes()...)
		lens = append(lens, 1+len(w.Bytes()))
	}
	out := bitio.AppendUvarint(nil, uint64(n))
	out = bitio.AppendUint64(out, math.Float64bits(eb))
	out = bitio.AppendUvarint(out, uint64(nBlocks))
	for _, l := range lens {
		out = bitio.AppendUvarint(out, uint64(l))
	}
	return append(out, body...)
}

// decompressRef is the serial per-value oracle of DecompressCtx, with the
// same ErrCorrupt verdicts: one ReadBits call per field of every value.
func decompressRef(blob []byte) ([]float32, error) {
	n64, nn := bitio.Uvarint(blob)
	if nn == 0 || n64 > 1<<33 || nn+8 > len(blob) {
		return nil, ErrCorrupt
	}
	n := int(n64)
	off := nn + 8
	nBlocks, nn := bitio.Uvarint(blob[off:])
	want := (n + blockVals - 1) / blockVals
	if nn == 0 || nBlocks != uint64(want) {
		return nil, ErrCorrupt
	}
	off += nn
	lens := make([]int, want)
	total := 0
	for i := range lens {
		l, nn := bitio.Uvarint(blob[off:])
		if nn == 0 || l > uint64(len(blob)) {
			return nil, ErrCorrupt
		}
		off += nn
		lens[i] = int(l)
		total += int(l)
		if total > len(blob) {
			return nil, ErrCorrupt
		}
	}
	if off+total > len(blob) {
		return nil, ErrCorrupt
	}
	out := make([]float32, n)
	for b, l := range lens {
		body := blob[off : off+l]
		off += l
		lo, hi := b*blockVals, min((b+1)*blockVals, n)
		if len(body) == 0 {
			return nil, ErrCorrupt
		}
		switch body[0] {
		case 0x01:
			if len(body) != 5 {
				return nil, ErrCorrupt
			}
			mean := math.Float32frombits(binary.LittleEndian.Uint32(body[1:]))
			for i := lo; i < hi; i++ {
				out[i] = mean
			}
		case 0x00:
			r := bitio.NewReader(body[1:])
			keep64, err := r.ReadBits(5)
			if err != nil || keep64 > 23 {
				return nil, ErrCorrupt
			}
			keep := uint(keep64)
			for i := lo; i < hi; i++ {
				se, err := r.ReadBits(9)
				if err != nil {
					return nil, ErrCorrupt
				}
				bits := uint32(se) << 23
				if keep > 0 {
					m, err := r.ReadBits(keep)
					if err != nil {
						return nil, ErrCorrupt
					}
					bits |= uint32(m) << (23 - keep)
				}
				out[i] = math.Float32frombits(bits)
			}
		default:
			return nil, ErrCorrupt
		}
	}
	return out, nil
}

func f32BitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkMatchesOracle requires the packed kernels and the oracle to write
// byte-identical containers and decode them, each other's included, to
// identical bits.
func checkMatchesOracle(t *testing.T, dev *gpusim.Device, label string, data []float32, eb float64) {
	t.Helper()
	want := compressRef(data, eb)
	got, err := CompressCtx(nil, dev, data, eb)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: containers diverge", label)
	}
	wantRecon, err := decompressRef(want)
	if err != nil {
		t.Fatalf("%s oracle decode: %v", label, err)
	}
	gotRecon, err := DecompressCtx(nil, dev, want)
	if err != nil {
		t.Fatalf("%s decode: %v", label, err)
	}
	if !f32BitsEqual(gotRecon, wantRecon) {
		t.Fatalf("%s: reconstructions diverge", label)
	}
}

// TestPackedMatchesScalar is the equivalence property for the packed
// kernels over every datagen field, shard shapes with ragged last blocks,
// and two bounds.
func TestPackedMatchesScalar(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(4)
	for _, name := range datagen.Names() {
		for _, dims := range [][]int{{24, 16, 16}, {33, 17, 9}, {41, 77}, {999}} {
			f, err := datagen.Generate(name, dims, 17)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			for _, rel := range []float64{1e-2, 1e-4} {
				eb := metrics.AbsEB(f.Data, rel)
				if !(eb > 0) || math.IsInf(eb, 0) {
					continue // all-NaN degenerate shapes; the specials cover NaN
				}
				checkMatchesOracle(t, dev, fmt.Sprintf("%s %v %g", name, dims, rel), f.Data, eb)
			}
		}
	}
}

// TestPackedMatchesScalarSpecials covers what the datagen fields never
// hold: NaN, ±Inf and near-overflow sprinkles, an all-NaN field,
// denormals at a bound below their spacing, and constant fields.
func TestPackedMatchesScalarSpecials(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(3)
	rng := rand.New(rand.NewSource(4))
	const n = 2000
	smooth := make([]float32, n)
	for i := range smooth {
		smooth[i] = float32(math.Sin(float64(i)*0.02) * 50)
	}
	sprinkled := append([]float32(nil), smooth...)
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -2e38}
	for i := 0; i < 40; i++ {
		sprinkled[rng.Intn(n)] = special[rng.Intn(len(special))]
	}
	allNaN := make([]float32, n)
	denorm := make([]float32, n)
	constant := make([]float32, n)
	huge := make([]float32, n)
	for i := range allNaN {
		allNaN[i] = float32(math.NaN())
		denorm[i] = float32(rng.Float64() * 1e-40)
		constant[i] = 3.25
		huge[i] = float32(2e38 + 1e35*math.Sin(float64(i)))
	}
	for _, tc := range []struct {
		name string
		data []float32
		eb   float64
	}{
		{"sprinkled", sprinkled, 1e-3},
		{"all-nan", allNaN, 1e-3},
		{"denormal", denorm, 1e-43},
		{"constant", constant, 1e-6},
		{"near-overflow", huge, 1e36}, // finite values of the top exponent
		{"above-range", smooth, 1e3},
	} {
		checkMatchesOracle(t, dev, tc.name, tc.data, tc.eb)
	}
}

// TestDecodeVerdictMatchesOracle truncates and bit-flips valid containers
// and requires the packed decoder and the oracle to agree on every
// verdict and, when both accept, on every bit.
func TestDecodeVerdictMatchesOracle(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(2)
	f, err := datagen.Generate("nyx", []int{9, 13, 17}, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob := compressRef(f.Data, metrics.AbsEB(f.Data, 1e-3))
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 400; trial++ {
		bad := append([]byte(nil), blob...)
		if trial%4 == 0 {
			bad = bad[:rng.Intn(len(bad))]
		} else {
			bad[rng.Intn(len(bad))] ^= byte(1 << rng.Intn(8))
		}
		want, wantErr := decompressRef(bad)
		got, gotErr := DecompressCtx(nil, dev, bad)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: verdicts diverge: packed %v, oracle %v", trial, gotErr, wantErr)
		}
		if gotErr == nil && !f32BitsEqual(got, want) {
			t.Fatalf("trial %d: reconstructions diverge", trial)
		}
	}
}
