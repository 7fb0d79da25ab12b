package lccodec

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

// tcms1Ref is the per-byte oracle of TCMS1: int8 zigzag forward, its
// inverse backward.
func tcms1Ref(src []byte, fwd bool) []byte {
	out := make([]byte, len(src))
	for i, b := range src {
		if fwd {
			out[i] = (b << 1) ^ byte(int8(b)>>7)
		} else {
			out[i] = byte(int8(b>>1) ^ -int8(b&1))
		}
	}
	return out
}

// elim1EncodeRef is the per-symbol oracle of RRE1 (zero false) and RZE1
// (zero true), its bitmap recursing through the oracle itself.
func elim1EncodeRef(src []byte, zero bool, depth int) []byte {
	n := len(src)
	bitmap := make([]byte, (n+7)/8)
	var kept []byte
	var prev byte
	for i, v := range src {
		var keep bool
		if zero {
			keep = v != 0
		} else {
			keep = i == 0 || v != prev
			prev = v
		}
		if keep {
			bitmap[i>>3] |= 1 << (i & 7)
			kept = append(kept, v)
		}
	}
	bm := append([]byte{bitmapRaw}, bitmap...)
	if depth > 1 && len(bitmap) >= minRecurseSize {
		if inner := elim1EncodeRef(bitmap, false, depth-1); len(inner) < len(bitmap) {
			bm = append([]byte{bitmapRecursive}, inner...)
		}
	}
	out := bitio.AppendUvarint(nil, uint64(n))
	out = bitio.AppendUvarint(out, uint64(len(bm)))
	out = append(out, bm...)
	return append(out, kept...)
}

// elim1DecodeRef is the per-symbol oracle of the RRE1/RZE1 decoder, with
// the same ErrCorrupt verdicts.
func elim1DecodeRef(src []byte, zero bool, depth int) ([]byte, error) {
	origLen, n0 := bitio.Uvarint(src)
	if n0 == 0 || origLen > 1<<35 {
		return nil, ErrCorrupt
	}
	off := n0
	bmLen, n1 := bitio.Uvarint(src[off:])
	if n1 == 0 || bmLen > uint64(len(src)) {
		return nil, ErrCorrupt
	}
	off += n1
	if off+int(bmLen) > len(src) {
		return nil, ErrCorrupt
	}
	nSym := int(origLen)
	p := src[off : off+int(bmLen)]
	off += int(bmLen)
	wantLen := (nSym + 7) / 8
	var bitmap []byte
	switch {
	case len(p) == 0:
		if wantLen != 0 {
			return nil, ErrCorrupt
		}
	case p[0] == bitmapRaw:
		bitmap = p[1:]
	case p[0] == bitmapRecursive && depth > 1:
		var err error
		if bitmap, err = elim1DecodeRef(p[1:], false, depth-1); err != nil {
			return nil, err
		}
	default:
		return nil, ErrCorrupt
	}
	if len(bitmap) != wantLen {
		return nil, ErrCorrupt
	}
	out := make([]byte, nSym)
	var prev byte
	for i := range out {
		switch {
		case bitmap[i>>3]>>(i&7)&1 != 0:
			if off >= len(src) {
				return nil, ErrCorrupt
			}
			out[i] = src[off]
			off++
			prev = out[i]
		case zero:
			out[i] = 0
		case i == 0:
			return nil, ErrCorrupt // first symbol must be kept
		default:
			out[i] = prev
		}
	}
	if off != len(src) {
		return nil, ErrCorrupt
	}
	return out, nil
}

// clogEncodeRef is the per-byte oracle of CLOG1: a byte-wise max scan and
// one WriteBits call per value.
func clogEncodeRef(src []byte) []byte {
	var w bitio.Writer
	for lo := 0; lo < len(src); lo += clogBlock {
		blk := src[lo:min(lo+clogBlock, len(src))]
		var maxv byte
		for _, v := range blk {
			maxv = max(maxv, v)
		}
		width := uint(0)
		for v := maxv; v > 0; v >>= 1 {
			width++
		}
		w.WriteBits(uint64(width), 4)
		for _, v := range blk {
			if width > 0 {
				w.WriteBits(uint64(v), width)
			}
		}
	}
	return append(bitio.AppendUvarint(nil, uint64(len(src))), w.Bytes()...)
}

// clogDecodeRef is the per-byte oracle of the CLOG1 decoder, with the same
// ErrCorrupt verdicts.
func clogDecodeRef(src []byte) ([]byte, error) {
	origLen, n := bitio.Uvarint(src)
	if n == 0 || origLen > 1<<35 {
		return nil, ErrCorrupt
	}
	nBlocks := int((origLen + clogBlock - 1) / clogBlock)
	if nBlocks > 2*(len(src)-n) {
		return nil, ErrCorrupt
	}
	r := bitio.NewReader(src[n:])
	out := make([]byte, int(origLen))
	for lo := 0; lo < len(out); lo += clogBlock {
		width, err := r.ReadBits(4)
		if err != nil || width > 8 {
			return nil, ErrCorrupt
		}
		for i := lo; i < min(lo+clogBlock, len(out)); i++ {
			if width == 0 {
				continue
			}
			v, err := r.ReadBits(uint(width))
			if err != nil {
				return nil, ErrCorrupt
			}
			out[i] = byte(v)
		}
	}
	return out, nil
}

// stageOracle pairs a wide byte stage with its per-symbol oracle.
type stageOracle struct {
	stage  Component
	encode func([]byte) []byte
	decode func([]byte) ([]byte, error)
}

func stageOracles() []stageOracle {
	return []stageOracle{
		{tcms{w: 1}, func(p []byte) []byte { return tcms1Ref(p, true) },
			func(p []byte) ([]byte, error) { return tcms1Ref(p, false), nil }},
		{elim{w: 1}, func(p []byte) []byte { return elim1EncodeRef(p, false, maxBitmapDepth) },
			func(p []byte) ([]byte, error) { return elim1DecodeRef(p, false, maxBitmapDepth) }},
		{elim{w: 1, zero: true}, func(p []byte) []byte { return elim1EncodeRef(p, true, maxBitmapDepth) },
			func(p []byte) ([]byte, error) { return elim1DecodeRef(p, true, maxBitmapDepth) }},
		{clog{}, clogEncodeRef, clogDecodeRef},
	}
}

// oracleInputs returns stage inputs that reach every group case of the
// wide kernels: the raw float bytes and the zigzag-delta code bytes of
// each datagen field on the container shard shapes, plus synthetic
// streams whose lengths are not multiples of 8, with all-zero 8-byte
// groups, groups with no zero byte, 0xFF runs and repeat runs.
func oracleInputs(t *testing.T) map[string][]byte {
	t.Helper()
	in := map[string][]byte{}
	for _, name := range datagen.Names() {
		for _, dims := range [][]int{{24, 16, 16}, {33, 17, 9}, {41, 77}, {999}} {
			f, err := datagen.Generate(name, dims, 17)
			if err != nil {
				t.Fatalf("%s %v: %v", name, dims, err)
			}
			raw := make([]byte, 4*len(f.Data))
			for i, v := range f.Data {
				binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
			}
			in[fmt.Sprintf("%s %v raw", name, dims)] = raw
			eb := metrics.AbsEB(f.Data, 1e-2)
			codes := make([]byte, len(f.Data))
			var prev int64
			for i, v := range f.Data {
				q := int64(0)
				if r := math.Round(float64(v) / (2 * eb)); !math.IsNaN(r) && math.Abs(r) < 1<<40 {
					q = int64(r)
				}
				codes[i] = byte(bitio.ZigZag(q - prev))
				prev = q
			}
			in[fmt.Sprintf("%s %v codes", name, dims)] = codes
		}
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 7, 9, 63, 64, 65, 255, 257, 1001, 4099} {
		noise := make([]byte, n)
		rng.Read(noise)
		in[fmt.Sprintf("noise %d", n)] = noise
		in[fmt.Sprintf("zeros %d", n)] = make([]byte, n)
		ff := bytes.Repeat([]byte{0xFF}, n)
		in[fmt.Sprintf("ff %d", n)] = ff
		mixed := make([]byte, n)
		for i := range mixed {
			switch (i / 8) % 5 {
			case 0: // all-zero group
			case 1: // no zero byte
				mixed[i] = byte(1 + rng.Intn(255))
			case 2: // 0xFF run
				mixed[i] = 0xFF
			case 3: // repeat run
				mixed[i] = 0x42
			default: // sparse
				if rng.Intn(4) == 0 {
					mixed[i] = byte(rng.Intn(256))
				}
			}
		}
		in[fmt.Sprintf("mixed %d", n)] = mixed
	}
	return in
}

// TestStagesMatchOracles is the equivalence property for the SWAR/packed
// byte stages: TCMS1, RRE1, RZE1 and CLOG1 must write exactly their
// per-symbol oracle's bytes, and decode both streams to the input.
func TestStagesMatchOracles(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(4)
	inputs := oracleInputs(t)
	for _, so := range stageOracles() {
		for label, src := range inputs {
			want := so.encode(src)
			got, err := so.stage.Encode(nil, dev, src)
			if err != nil {
				t.Fatalf("%s %s: %v", so.stage.Name(), label, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: stage payloads diverge", so.stage.Name(), label)
			}
			dec, err := so.stage.Decode(nil, dev, want)
			if err != nil || !bytes.Equal(dec, src) {
				t.Fatalf("%s %s: wide decode diverges (%v)", so.stage.Name(), label, err)
			}
			ref, err := so.decode(want)
			if err != nil || !bytes.Equal(ref, src) {
				t.Fatalf("%s %s: oracle decode diverges (%v)", so.stage.Name(), label, err)
			}
		}
	}
}

// TestStageDecodeVerdictsMatchOracles truncates and bit-flips valid stage
// payloads and requires the wide decoders and the oracles to agree on
// every verdict and, when both accept, on every byte.
func TestStageDecodeVerdictsMatchOracles(t *testing.T) {
	t.Parallel()
	dev := gpusim.New(2)
	rng := rand.New(rand.NewSource(10))
	srcs := [][]byte{
		bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x42}, 40),
		make([]byte, 1234),
	}
	rng.Read(srcs[1][:300])
	for _, so := range stageOracles() {
		for _, src := range srcs {
			enc := so.encode(src)
			for trial := 0; trial < 200; trial++ {
				bad := append([]byte(nil), enc...)
				if len(bad) == 0 {
					break
				}
				if trial%4 == 0 {
					bad = bad[:rng.Intn(len(bad))]
				} else {
					bad[rng.Intn(len(bad))] ^= byte(1 << rng.Intn(8))
				}
				want, wantErr := so.decode(bad)
				got, gotErr := so.stage.Decode(nil, dev, bad)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s trial %d: verdicts diverge: wide %v, oracle %v", so.stage.Name(), trial, gotErr, wantErr)
				}
				if gotErr == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s trial %d: decoded bytes diverge", so.stage.Name(), trial)
				}
			}
		}
	}
}
