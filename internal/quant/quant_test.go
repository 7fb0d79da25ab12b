package quant

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

func TestQuantizeWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eb := 1e-3
	twoEB := 2 * eb
	for i := 0; i < 100_000; i++ {
		pred := float32(rng.NormFloat64() * 10)
		val := pred + float32(rng.NormFloat64()*0.01)
		code, recon, outlier := Quantize(val, pred, twoEB)
		if outlier {
			if recon != val {
				t.Fatal("outlier recon must be the original value")
			}
			continue
		}
		if code == OutlierCode {
			t.Fatal("non-outlier with outlier code")
		}
		if math.Abs(float64(val)-float64(recon)) > eb*(1+1e-9) {
			t.Fatalf("bound violated: val=%v recon=%v eb=%v", val, recon, eb)
		}
		// Dequantize must reproduce the same reconstruction.
		if Dequantize(code, pred, twoEB) != recon {
			t.Fatal("Dequantize != encoder recon")
		}
	}
}

func TestQuantizeExactPrediction(t *testing.T) {
	code, recon, outlier := Quantize(5.0, 5.0, 2e-3)
	if outlier || code != ZeroCode || recon != 5.0 {
		t.Fatalf("exact pred: code=%d recon=%v outlier=%v", code, recon, outlier)
	}
}

func TestQuantizeLargeErrorIsOutlier(t *testing.T) {
	_, recon, outlier := Quantize(100, 0, 2e-3)
	if !outlier || recon != 100 {
		t.Fatal("large error must be an outlier")
	}
}

func TestQuantizeHugeMagnitudeRounding(t *testing.T) {
	// At values where float32 spacing exceeds eb the recon check must kick
	// in and fall back to outlier rather than violate the bound.
	val := float32(1e30)
	pred := float32(1.0000001e30)
	code, recon, outlier := Quantize(val, pred, 2e-3)
	if !outlier {
		diff := math.Abs(float64(val) - float64(recon))
		if diff > 1e-3 {
			t.Fatalf("non-outlier code %d violates bound by %v", code, diff)
		}
	}
}

func TestOutliersRoundTrip(t *testing.T) {
	o := &Outliers{}
	rng := rand.New(rand.NewSource(2))
	pos := 0
	for i := 0; i < 1000; i++ {
		pos += 1 + rng.Intn(5000)
		o.Append(pos, float32(rng.NormFloat64()))
	}
	blob := o.Serialize(nil)
	got := &Outliers{}
	used, err := ParseOutliersInto(nil, got, blob)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(blob) {
		t.Fatalf("consumed %d of %d bytes", used, len(blob))
	}
	if got.Len() != o.Len() {
		t.Fatalf("count %d != %d", got.Len(), o.Len())
	}
	for i := range o.Pos {
		if got.Pos[i] != o.Pos[i] || got.Val[i] != o.Val[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if v, ok := got.SortedGet(o.Pos[17]); !ok || v != o.Val[17] {
		t.Fatal("SortedGet mismatch")
	}
	if _, ok := got.SortedGet(o.Pos[17] + 1); ok {
		t.Fatal("SortedGet hit on absent position")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := got.SortedGet(o.Pos[17]); !ok {
			t.Error("SortedGet miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("SortedGet allocates %.1f/op, want 0", allocs)
	}
}

func TestOutliersEmpty(t *testing.T) {
	o := &Outliers{}
	blob := o.Serialize(nil)
	got := &Outliers{}
	_, err := ParseOutliersInto(nil, got, blob)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v, len %d", err, got.Len())
	}
}

func TestParseOutliersCorrupt(t *testing.T) {
	o := &Outliers{}
	o.Append(5, 1.5)
	o.Append(10, 2.5)
	blob := o.Serialize(nil)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ParseOutliersInto(nil, &Outliers{}, blob[:cut]); err == nil {
			t.Fatalf("truncation to %d: want error", cut)
		}
	}
}

func TestLevelOrderPermIsPermutation(t *testing.T) {
	for _, tc := range []struct {
		dims   []int
		stride int
	}{
		{[]int{16, 16, 16}, 16},
		{[]int{17, 17, 17}, 16},
		{[]int{33, 9, 9}, 8},
		{[]int{20, 31}, 16},
		{[]int{100}, 8},
		{[]int{1, 1, 1}, 16},
		{[]int{5, 3, 2}, 16},
	} {
		perm := LevelOrderPermCtx(nil, tc.dims, tc.stride)
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		if len(perm) != n {
			t.Fatalf("dims %v: perm len %d != %d", tc.dims, len(perm), n)
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("dims %v: invalid or duplicate index %d", tc.dims, p)
			}
			seen[p] = true
		}
	}
}

func TestLevelOrderCoarseFirst(t *testing.T) {
	// Anchors (all coords ≡ 0 mod A) must occupy the head of the sequence.
	dims := []int{32, 32, 32}
	A := 16
	perm := LevelOrderPermCtx(nil, dims, A)
	nAnchors := 2 * 2 * 2
	for k := 0; k < nAnchors; k++ {
		idx := int(perm[k])
		x := idx % 32
		y := (idx / 32) % 32
		z := idx / (32 * 32)
		if x%A != 0 || y%A != 0 || z%A != 0 {
			t.Fatalf("position %d is not an anchor: (%d,%d,%d)", k, z, y, x)
		}
	}
	// Directly after must come the stride-8 level (some coord ≡ 8 mod 16).
	idx := int(perm[nAnchors])
	x := idx % 32
	y := (idx / 32) % 32
	z := idx / (32 * 32)
	if x%8 != 0 || y%8 != 0 || z%8 != 0 {
		t.Fatalf("first post-anchor point (%d,%d,%d) not on stride-8 lattice", z, y, x)
	}
}

func TestApplyInvertRoundTrip(t *testing.T) {
	dims := []int{24, 19, 31}
	perm := LevelOrderPermCtx(nil, dims, 16)
	n := len(perm)
	src := make([]uint8, n)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = uint8(rng.Intn(256))
	}
	reord := make([]uint8, n)
	back := make([]uint8, n)
	Apply(dev, perm, src, reord)
	Invert(dev, perm, reord, back)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestReorderGroupsLevels(t *testing.T) {
	// Paint each point with its interpolation level; after reordering, the
	// sequence must be non-increasing (coarse levels first).
	dims := []int{33, 33, 33}
	A := 16
	nz, ny, nx := dims[0], dims[1], dims[2]
	src := make([]uint8, nz*ny*nx)
	level := func(v int) int {
		l := 0
		for v%2 == 0 && l < 4 {
			v /= 2
			l++
		}
		return l
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				l := level(x)
				if ly := level(y); ly < l {
					l = ly
				}
				if lz := level(z); lz < l {
					l = lz
				}
				src[(z*ny+y)*nx+x] = uint8(l)
			}
		}
	}
	perm := LevelOrderPermCtx(nil, dims, A)
	dst := make([]uint8, len(src))
	Apply(dev, perm, src, dst)
	if !sort.SliceIsSorted(dst, func(i, j int) bool { return dst[i] > dst[j] }) {
		t.Fatal("reordered sequence is not grouped coarse-to-fine")
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(valSeed, predSeed int16) bool {
		val := float32(valSeed) / 100
		pred := float32(predSeed) / 100
		twoEB := 0.02
		code, recon, outlier := Quantize(val, pred, twoEB)
		if outlier {
			return recon == val
		}
		return Dequantize(code, pred, twoEB) == recon &&
			math.Abs(float64(val)-float64(recon)) <= twoEB/2*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGatherScatterMatchPerm pins the closed-form level-order walk to the
// LevelOrderPermCtx table in both directions: Gather equals Apply and Scatter
// equals Invert, over rank 1–4 dims (including sizes that are not
// multiples of the stride and degenerate unit dims), strides 1–16, and 1
// and 4 workers. Scatter runs over two different prefills, so a position
// it failed to write would show.
func TestGatherScatterMatchPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	devs := []*gpusim.Device{gpusim.New(1), gpusim.New(4)}
	for _, dims := range [][]int{
		{1}, {7}, {100}, {33},
		{1, 17}, {20, 31}, {16, 16}, {9, 1},
		{1, 1, 1}, {5, 3, 2}, {16, 16, 16}, {17, 17, 17}, {33, 9, 9}, {24, 19, 31}, {40, 12, 12},
		{3, 5, 6, 7}, {2, 17, 9, 10}, {12, 4, 8, 8},
	} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		for _, stride := range []int{1, 2, 4, 8, 16} {
			perm := LevelOrderPermCtx(nil, dims, stride)
			natural := make([]uint8, n)
			rng.Read(natural)
			want := make([]uint8, n)
			Apply(devs[0], perm, natural, want)
			ordered := make([]uint8, n)
			rng.Read(ordered)
			wantBack := make([]uint8, n)
			Invert(devs[0], perm, ordered, wantBack)
			for _, d := range devs {
				got := make([]uint8, n)
				Gather(d, dims, stride, natural, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("dims %v stride %d workers %d: Gather differs from Apply", dims, stride, d.Workers())
				}
				for _, fill := range []uint8{0, 0xff} {
					back := bytes.Repeat([]byte{fill}, n)
					Scatter(d, dims, stride, ordered, back)
					if !bytes.Equal(back, wantBack) {
						t.Fatalf("dims %v stride %d workers %d: Scatter differs from Invert", dims, stride, d.Workers())
					}
				}
			}
		}
	}
}
