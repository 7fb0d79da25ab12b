package zfp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var dev = gpusim.New(4)

func smoothField(nz, ny, nx int) []float32 {
	out := make([]float32, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				out[i] = float32(math.Sin(float64(x)*0.12)*math.Cos(float64(y)*0.09) +
					0.5*math.Sin(float64(z)*0.07))
				i++
			}
		}
	}
	return out
}

func TestRoundTripSize(t *testing.T) {
	dims := []int{32, 32, 32}
	data := smoothField(32, 32, 32)
	for _, rate := range []int{4, 8, 16} {
		blob, err := CompressRate(dev, data, dims, float64(rate))
		if err != nil {
			t.Fatal(err)
		}
		// Fixed rate: payload must be exactly rate*len/8 bytes (+header).
		want := rate * len(data) / 8
		if len(blob) < want || len(blob) > want+32 {
			t.Fatalf("rate %d: size %d, want ~%d", rate, len(blob), want)
		}
		recon, gotDims, err := Decompress(dev, blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotDims) != 3 || gotDims[0] != 32 {
			t.Fatalf("dims = %v", gotDims)
		}
		if len(recon) != len(data) {
			t.Fatalf("len %d", len(recon))
		}
	}
}

func TestQualityImprovesWithRate(t *testing.T) {
	dims := []int{32, 32, 32}
	data := smoothField(32, 32, 32)
	var prev float64 = -1
	for _, rate := range []int{2, 4, 8, 16} {
		blob, err := CompressRate(dev, data, dims, float64(rate))
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := Decompress(dev, blob)
		if err != nil {
			t.Fatal(err)
		}
		d := metrics.Compare(data, recon)
		if d.PSNR <= prev {
			t.Fatalf("PSNR not increasing: rate %d gives %.1f after %.1f", rate, d.PSNR, prev)
		}
		prev = d.PSNR
	}
	if prev < 60 {
		t.Fatalf("rate-16 PSNR = %.1f dB, want > 60 on smooth data", prev)
	}
}

func TestHighRateNearLossless(t *testing.T) {
	dims := []int{16, 16, 16}
	data := smoothField(16, 16, 16)
	blob, err := CompressRate(dev, data, dims, float64(28))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.Compare(data, recon)
	if d.MaxErr > 1e-4 {
		t.Fatalf("rate-28 max err = %v", d.MaxErr)
	}
}

func TestRoundTrip2D1D(t *testing.T) {
	data2 := smoothField(1, 40, 52)
	blob, err := CompressRate(dev, data2, []int{40, 52}, float64(8))
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := Decompress(dev, blob)
	if err != nil || len(dims) != 2 {
		t.Fatalf("%v dims=%v", err, dims)
	}
	if metrics.Compare(data2, recon).PSNR < 30 {
		t.Fatal("2D PSNR too low")
	}
	data1 := smoothField(1, 1, 1000)
	blob, err = CompressRate(dev, data1, []int{1000}, float64(12))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err = Decompress(dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Compare(data1, recon).PSNR < 30 {
		t.Fatal("1D PSNR too low")
	}
}

func TestPartialBlocks(t *testing.T) {
	for _, dims := range [][]int{{5, 6, 7}, {1, 1, 3}, {9, 2, 13}} {
		n := dims[0] * dims[1] * dims[2]
		data := smoothField(dims[0], dims[1], dims[2])
		blob, err := CompressRate(dev, data, dims, float64(16))
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := Decompress(dev, blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != n {
			t.Fatalf("dims %v: len %d != %d", dims, len(recon), n)
		}
		if metrics.Compare(data, recon).PSNR < 40 {
			t.Fatalf("dims %v: PSNR too low", dims)
		}
	}
}

func TestZeroField(t *testing.T) {
	data := make([]float32, 64)
	blob, err := CompressRate(dev, data, []int{4, 4, 4}, float64(8))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if v != 0 {
			t.Fatalf("recon[%d] = %v", i, v)
		}
	}
}

func TestNonFiniteBlocksBecomeZero(t *testing.T) {
	data := make([]float32, 64)
	data[0] = float32(math.NaN())
	data[5] = float32(math.Inf(1))
	blob, err := CompressRate(dev, data, []int{4, 4, 4}, float64(8))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(dev, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if v != 0 {
			t.Fatalf("recon[%d] = %v", i, v)
		}
	}
}

func TestTransformInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var c, orig [64]int32
		for i := range c {
			c[i] = int32(rng.Intn(1<<28) - 1<<27)
			orig[i] = c[i]
		}
		transform(c[:], 3, false)
		transform(c[:], 3, true)
		for i := range c {
			// ZFP's lifting drops low-order bits; across three dimensions
			// the drift compounds but stays tiny relative to the 2^27
			// coefficient magnitudes.
			diff := int64(c[i]) - int64(orig[i])
			if diff < -64 || diff > 64 {
				t.Fatalf("trial %d: coeff %d drifted by %d", trial, i, diff)
			}
		}
	}
}

func TestNegabinary(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 100, -100, math.MaxInt32 / 2, math.MinInt32 / 2} {
		if got := fromNegabinary(toNegabinary(v)); got != v {
			t.Fatalf("negabinary(%d) -> %d", v, got)
		}
	}
	// Negabinary of small values has few set bits in the high planes.
	if toNegabinary(0) != 0 {
		t.Fatal("negabinary(0) != 0")
	}
}

func TestPermsValid(t *testing.T) {
	for d := 1; d <= 3; d++ {
		n := 1 << (2 * d)
		seen := make([]bool, n)
		for _, p := range perms[d] {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("d=%d: bad perm", d)
			}
			seen[p] = true
		}
		// First entry must be the DC coefficient (0,0,0).
		if perms[d][0] != 0 {
			t.Fatalf("d=%d: perm[0] = %d", d, perms[d][0])
		}
	}
}

func TestCompressErrors(t *testing.T) {
	data := make([]float32, 64)
	if _, err := CompressRate(dev, data, []int{4, 4}, float64(8)); err == nil {
		t.Fatal("want dims mismatch error")
	}
	if _, err := CompressRate(dev, data, []int{4, 4, 4}, float64(0)); err == nil {
		t.Fatal("want rate error")
	}
	if _, err := CompressRate(dev, data, []int{4, 4, 4}, float64(31)); err == nil {
		t.Fatal("want rate error")
	}
	if _, err := CompressRate(dev, data, []int{2, 2, 2, 8}, float64(8)); err == nil {
		t.Fatal("want ndims error")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := smoothField(8, 8, 8)
	blob, err := CompressRate(dev, data, []int{8, 8, 8}, float64(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, len(blob) / 2} {
		if _, _, err := Decompress(dev, blob[:cut]); err == nil {
			t.Fatalf("truncation to %d: want error", cut)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		bad := append([]byte(nil), blob...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		Decompress(dev, bad) // must not panic
	}
}

func TestFractionalRates(t *testing.T) {
	dims := []int{32, 32, 32}
	data := smoothField(32, 32, 32)
	for _, rate := range []float64{0.25, 0.5, 1.5} {
		blob, err := CompressRate(dev, data, dims, rate)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := Decompress(dev, blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(recon) != len(data) {
			t.Fatalf("rate %g: len %d", rate, len(recon))
		}
		wantBytes := int(rate*float64(len(data))/8) + 64
		if rate >= 0.25 && len(blob) > wantBytes {
			t.Fatalf("rate %g: %d bytes, want <= ~%d", rate, len(blob), wantBytes)
		}
	}
	// Sub-1-bit rates unlock CR > 32 (the paper's Fig. 9 cuZFP points).
	blob, err := CompressRate(dev, data, dims, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if cr := float64(4*len(data)) / float64(len(blob)); cr < 100 {
		t.Fatalf("rate 0.25 CR = %.1f, want > 100", cr)
	}
	if _, err := CompressRate(dev, data, dims, 0); err == nil {
		t.Fatal("want error for rate 0")
	}
	if _, err := CompressRate(dev, data, dims, 31); err == nil {
		t.Fatal("want error for rate 31")
	}
}
