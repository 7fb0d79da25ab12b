package interp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/quant"
)

// spikyField is a smooth field with sparse large spikes: under a tight
// bound the spikes fall outside the quantizer's range, so every block
// layer carries outliers.
func spikyField(rng *rand.Rand, g Grid) []float32 {
	data := make([]float32, g.Len())
	for i := range data {
		z, y, x := i/(g.Ny*g.Nx), i/g.Nx%g.Ny, i%g.Nx
		data[i] = float32(math.Sin(0.3*float64(z)) + math.Cos(0.2*float64(y)*float64(x+1)))
		if rng.Intn(40) == 0 {
			data[i] += 50 * (rng.Float32() - 0.5)
		}
	}
	return data
}

// planeConfigs are the predictor configs the plane-range property runs:
// both presets (16- and 8-plane blocks) and their AutoTune'd per-level
// picks for data.
func planeConfigs(dev *gpusim.Device, data []float32, g Grid) map[string]Config {
	cfgs := map[string]Config{"hi": HiConfig(), "cuszi": CuszIConfig()}
	for name, cfg := range map[string]Config{"hi-tuned": HiConfig(), "cuszi-tuned": CuszIConfig()} {
		cfg.PerLevel = AutoTune(dev, data, g, cfg, 0.5)
		cfgs[name] = cfg
	}
	return cfgs
}

// TestDecompressPlanesMatchesWhole is the plane-range equivalence
// property: for every window [z0, z1) of grids whose depth is a single
// plane, one block layer, one layer plus a plane, and several layers with
// a short last one, the plane-range decode must equal the matching slice
// of the whole decode bit for bit, outliers included.
func TestDecompressPlanesMatchesWhole(t *testing.T) {
	dev := gpusim.New(3)
	rng := rand.New(rand.NewSource(15))
	for _, nz := range []int{1, 2, 16, 17, 33, 40} {
		g := Grid{Nz: nz, Ny: 11, Nx: 13}
		plane := g.Ny * g.Nx
		data := spikyField(rng, g)
		const eb = 1e-3
		for name, cfg := range planeConfigs(dev, data, g) {
			res, err := CompressCtx(nil, dev, data, g, cfg, eb)
			if err != nil {
				t.Fatal(err)
			}
			if nz > 1 && res.Outliers.Len() == 0 {
				t.Fatalf("Nz=%d %s: no outliers, the bound is too loose to test them", nz, name)
			}
			whole, err := DecompressCtx(nil, dev, res, g, cfg, eb)
			if err != nil {
				t.Fatal(err)
			}
			for z0 := 0; z0 < nz; z0++ {
				for z1 := z0 + 1; z1 <= nz; z1++ {
					got, err := DecompressPlanesCtx(nil, dev, res, g, cfg, eb, z0, z1)
					if err != nil {
						t.Fatalf("Nz=%d %s [%d,%d): %v", nz, name, z0, z1, err)
					}
					if !f32BitsEqual(got, whole[z0*plane:z1*plane]) {
						t.Fatalf("Nz=%d %s [%d,%d): window differs from the whole decode's slice", nz, name, z0, z1)
					}
				}
			}
		}
	}
}

// TestDecompressPlanesVerdict pins the error verdict of a window to the
// whole decode's: an outlier code whose value is missing fails every
// window, even those whose blocks never read it, while an outlier code on
// an anchor point (which no decode reads) fails none.
func TestDecompressPlanesVerdict(t *testing.T) {
	dev := gpusim.New(2)
	g := Grid{Nz: 40, Ny: 9, Nx: 10}
	data := spikyField(rand.New(rand.NewSource(16)), g)
	cfg := HiConfig()
	const eb = 1e-3
	res, err := CompressCtx(nil, dev, data, g, cfg, eb)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := func(r *Result) (whole error, windows []error) {
		_, whole = DecompressCtx(nil, dev, r, g, cfg, eb)
		for z0 := 0; z0 < g.Nz; z0 += 4 {
			_, err := DecompressPlanesCtx(nil, dev, r, g, cfg, eb, z0, min(z0+8, g.Nz))
			windows = append(windows, err)
		}
		return whole, windows
	}

	// Drop the first outlier, which lies in block layer 0 (planes
	// [0, 16)): windows over the later layers skip its block, yet must
	// still fail.
	if res.Outliers.Len() == 0 || res.Outliers.Pos[0] >= 16*g.Ny*g.Nx {
		t.Fatal("no outlier in block layer 0")
	}
	lost := &Result{Codes: res.Codes, Anchors: res.Anchors,
		Outliers: &quant.Outliers{Pos: res.Outliers.Pos[1:], Val: res.Outliers.Val[1:]}}
	whole, windows := verdicts(lost)
	if !errors.Is(whole, quant.ErrCorrupt) {
		t.Fatalf("whole decode with a lost outlier: %v", whole)
	}
	for i, err := range windows {
		if !errors.Is(err, quant.ErrCorrupt) {
			t.Fatalf("window %d with a lost outlier elsewhere: %v", i, err)
		}
	}

	// An outlier code on an anchor point is never read.
	codes := append([]uint8(nil), res.Codes...)
	codes[(16*g.Ny+0)*g.Nx+0] = quant.OutlierCode
	anchored := &Result{Codes: codes, Anchors: res.Anchors, Outliers: res.Outliers}
	whole, windows = verdicts(anchored)
	if whole != nil {
		t.Fatalf("whole decode rejected an outlier code on an anchor: %v", whole)
	}
	for i, err := range windows {
		if err != nil {
			t.Fatalf("window %d rejected an outlier code on an anchor: %v", i, err)
		}
	}
}
