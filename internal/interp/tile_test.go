package interp

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/quant"
)

// tileField is a field and the absolute bound it is compressed at.
type tileField struct {
	data []float32
	eb   float64
}

// tileFields are the fields the tile-path equivalence runs on: a smooth
// field with mild noise at a loose bound, and uniform noise at a bound so
// tight that most non-anchor points are outliers.
func tileFields(g Grid, seed int64) map[string]tileField {
	rng := rand.New(rand.NewSource(seed))
	noise := make([]float32, g.Len())
	for i := range noise {
		noise[i] = rng.Float32()
	}
	return map[string]tileField{
		"smooth": {synthField([]int{g.Nz, g.Ny, g.Nx}, seed), 1e-2},
		"noise":  {noise, 1e-3},
	}
}

// tileWindows lists plane windows [z0, z1) of an nz-plane grid whose ends
// fall on, next to and inside the 8- and 16-plane block layers.
func tileWindows(nz int) [][2]int {
	cuts := []int{0, 1, 5, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, nz - 1, nz}
	var ws [][2]int
	for _, z0 := range cuts {
		for _, z1 := range cuts {
			w := [2]int{z0, z1}
			if z0 >= 0 && z0 < z1 && z1 <= nz && !slices.Contains(ws, w) {
				ws = append(ws, w)
			}
		}
	}
	return ws
}

// TestTileDecodeMatchesScalar pins the tile-resident reconstruction (code
// tile, fused dequantize-and-store pass, cached halo terms, row copy-out)
// to the per-point scalar oracle: over edge-block shapes and a three-layer
// grid, a smooth and an outlier-dense field, every equivConfigs entry and
// 1- and 4-worker devices, the whole decode and every window must return
// the oracle's bits.
func TestTileDecodeMatchesScalar(t *testing.T) {
	devs := map[string]*gpusim.Device{"1w": gpusim.New(1), "4w": gpusim.New(4)}
	for _, dims := range [][]int{{33, 17, 9}, {7, 5, 3}, {40, 19, 21}} {
		g := NewGrid(dims)
		plane := g.Ny * g.Nx
		for fn, f := range tileFields(g, 19) {
			for cn, cfg := range equivConfigs() {
				res, err := CompressCtx(nil, devs["1w"], f.data, g, cfg, f.eb)
				if err != nil {
					t.Fatal(err)
				}
				if fn == "noise" && res.Outliers.Len() < g.Len()/4 {
					t.Fatalf("%v %s: %d outliers in %d points, want a dense field",
						dims, cn, res.Outliers.Len(), g.Len())
				}
				want, err := decompressScalarOracle(res, g, cfg, f.eb)
				if err != nil {
					t.Fatalf("%v %s %s: oracle: %v", dims, fn, cn, err)
				}
				for dn, dev := range devs {
					ctx := arena.NewCtx()
					for _, w := range tileWindows(g.Nz) {
						ctx.Reset()
						got, err := DecompressPlanesCtx(ctx, dev, res, g, cfg, f.eb, w[0], w[1])
						if err != nil {
							t.Fatalf("%v %s %s %s [%d,%d): %v", dims, fn, cn, dn, w[0], w[1], err)
						}
						if !f32BitsEqual(got, want[w[0]*plane:w[1]*plane]) {
							t.Fatalf("%v %s %s %s [%d,%d): tile decode differs from the scalar oracle",
								dims, fn, cn, dn, w[0], w[1])
						}
					}
				}
			}
		}
	}
}

// TestTileDecodeVerdict checks that a lost outlier value fails the window
// [18, 22) of a grid with 16-plane block layers wherever the value lies:
// in the window, outside it but in the one layer the window decodes, or in
// a layer it skips. The whole decode and the scalar oracle fail too.
func TestTileDecodeVerdict(t *testing.T) {
	g := Grid{Nz: 40, Ny: 9, Nx: 10}
	plane := g.Ny * g.Nx
	data := spikyField(rand.New(rand.NewSource(20)), g)
	cfg := HiConfig()
	const eb = 1e-3
	const z0, z1 = 18, 22
	res, err := CompressCtx(nil, gpusim.New(1), data, g, cfg, eb)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lo, hi int // the lost value's plane range (away from layer faces)
	}{
		{"in window", z0, z1},
		{"decoded layer", z1, 31},
		{"skipped layer", 1, 15},
	} {
		i := slices.IndexFunc(res.Outliers.Pos, func(p int) bool { return p/plane >= tc.lo && p/plane < tc.hi })
		if i < 0 {
			t.Fatalf("%s: no outlier in planes [%d,%d)", tc.name, tc.lo, tc.hi)
		}
		lost := &Result{Codes: res.Codes, Anchors: res.Anchors, Outliers: &quant.Outliers{
			Pos: slices.Delete(slices.Clone(res.Outliers.Pos), i, i+1),
			Val: slices.Delete(slices.Clone(res.Outliers.Val), i, i+1),
		}}
		if _, err := decompressScalarOracle(lost, g, cfg, eb); !errors.Is(err, quant.ErrCorrupt) {
			t.Fatalf("%s: scalar oracle: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4} {
			dev := gpusim.New(workers)
			if _, err := DecompressCtx(nil, dev, lost, g, cfg, eb); !errors.Is(err, quant.ErrCorrupt) {
				t.Fatalf("%s, %d workers: whole decode: %v", tc.name, workers, err)
			}
			if _, err := DecompressPlanesCtx(nil, dev, lost, g, cfg, eb, z0, z1); !errors.Is(err, quant.ErrCorrupt) {
				t.Fatalf("%s, %d workers: window [%d,%d): %v", tc.name, workers, z0, z1, err)
			}
		}
	}
}

// FuzzDecompressPlanes compares the tile-resident window decode with the
// scalar oracle over mutated codes, dropped outlier values and random
// plane windows: both must give the same bits, or both ErrCorrupt.
func FuzzDecompressPlanes(f *testing.F) {
	g := Grid{Nz: 20, Ny: 7, Nx: 9}
	plane := g.Ny * g.Nx
	data := spikyField(rand.New(rand.NewSource(21)), g)
	cfgs := []Config{HiConfig(), CuszIConfig(), equivConfigs()["mixed"]}
	const eb = 1e-3
	dev := gpusim.New(2)
	base := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := CompressCtx(nil, dev, data, g, cfg, eb)
		if err != nil {
			f.Fatal(err)
		}
		base[i] = res
	}
	f.Add(uint8(0), uint8(0), uint8(19), []byte{}, uint8(0))
	f.Add(uint8(1), uint8(5), uint8(3), []byte{1, 10, 0, 0, 40, 255}, uint8(0))
	f.Add(uint8(2), uint8(17), uint8(1), []byte{}, uint8(0x41))
	f.Add(uint8(0), uint8(9), uint8(0), []byte{4, 200, 0}, uint8(0x0e))
	ctx := arena.NewCtx()
	f.Fuzz(func(t *testing.T, ci, z0, n uint8, muts []byte, drop uint8) {
		k := int(ci) % len(cfgs)
		cfg, b := cfgs[k], base[k]
		// Up to 64 code mutations, each (position high byte, low byte, code).
		codes := slices.Clone(b.Codes)
		for m := 0; m+2 < len(muts) && m < 3*64; m += 3 {
			codes[(int(muts[m])<<8|int(muts[m+1]))%len(codes)] = muts[m+2]
		}
		// Drop up to three outlier entries, spread from a fuzzed start.
		outl := &quant.Outliers{Pos: slices.Clone(b.Outliers.Pos), Val: slices.Clone(b.Outliers.Val)}
		for d := 0; d < int(drop&3) && outl.Len() > 0; d++ {
			i := (int(drop>>2) + 7*d) % outl.Len()
			outl.Pos = slices.Delete(outl.Pos, i, i+1)
			outl.Val = slices.Delete(outl.Val, i, i+1)
		}
		res := &Result{Codes: codes, Anchors: b.Anchors, Outliers: outl}
		za := int(z0) % g.Nz
		zb := za + 1 + int(n)%(g.Nz-za)

		want, wantErr := decompressScalarOracle(res, g, cfg, eb)
		ctx.Reset()
		got, err := DecompressPlanesCtx(ctx, dev, res, g, cfg, eb, za, zb)
		switch {
		case wantErr != nil:
			if !errors.Is(err, quant.ErrCorrupt) {
				t.Fatalf("[%d,%d): oracle %v, tile decode %v", za, zb, wantErr, err)
			}
		case err != nil:
			t.Fatalf("[%d,%d): tile decode failed where the oracle did not: %v", za, zb, err)
		case !f32BitsEqual(got, want[za*plane:zb*plane]):
			t.Fatalf("[%d,%d): tile decode differs from the scalar oracle", za, zb)
		}
	})
}

// TestTileDecodeGroupedOutliers puts outlier codes where the grouped
// decode defers their fix-up to the end of a pass over several rows. On
// the finest seq-zyx level of a one-block grid these are three rows of one
// z-plane pass (the z phase), three rows of one y-column pass (the y
// phase) and both halo columns of one z-plane pass of the x phase; an MD
// config takes the same points through its face-centre rows. The decode
// must give the scalar oracle's bits, and losing any one of the values
// must fail it and the oracle with ErrCorrupt.
func TestTileDecodeGroupedOutliers(t *testing.T) {
	g := Grid{Nz: 17, Ny: 17, Nx: 17}
	const eb = 1e-2
	data := synthField([]int{g.Nz, g.Ny, g.Nx}, 23)
	points := [][3]int{
		{5, 2, 4}, {5, 4, 4}, {5, 6, 4}, // z phase: rows y = 2, 4, 6 of plane z = 5
		{3, 9, 6}, {4, 9, 6}, {7, 9, 6}, // y phase: rows z = 3, 4, 7 of column y = 9
		{2, 3, 1}, {2, 8, 1}, {2, 5, 15}, // x phase: halo columns x = 1 and 15 of plane z = 2
	}
	devs := []*gpusim.Device{gpusim.New(1), gpusim.New(4)}
	for _, lc := range []LevelConfig{{Seq1DZYX, Cubic}, {MD, Cubic}} {
		cfg := HiConfig()
		cfg.PerLevel = uniformLevels(cfg.Levels(), lc)
		base, err := CompressCtx(nil, devs[0], data, g, cfg, eb)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{Codes: slices.Clone(base.Codes), Anchors: base.Anchors, Outliers: &quant.Outliers{
			Pos: slices.Clone(base.Outliers.Pos),
			Val: slices.Clone(base.Outliers.Val),
		}}
		for _, p := range points {
			i := g.flat(p[0], p[1], p[2])
			res.Codes[i] = quant.OutlierCode
			if k, found := slices.BinarySearch(res.Outliers.Pos, i); !found {
				res.Outliers.Pos = slices.Insert(res.Outliers.Pos, k, i)
				res.Outliers.Val = slices.Insert(res.Outliers.Val, k, float32(p[0]-p[1]+p[2]))
			}
		}
		want, err := decompressScalarOracle(res, g, cfg, eb)
		if err != nil {
			t.Fatalf("%v: oracle: %v", lc, err)
		}
		for _, dev := range devs {
			got, err := DecompressCtx(nil, dev, res, g, cfg, eb)
			if err != nil {
				t.Fatalf("%v: %v", lc, err)
			}
			if !f32BitsEqual(got, want) {
				t.Fatalf("%v, %d workers: decode differs from the scalar oracle", lc, dev.Workers())
			}
		}
		for _, p := range points {
			k, _ := slices.BinarySearch(res.Outliers.Pos, g.flat(p[0], p[1], p[2]))
			lost := &Result{Codes: res.Codes, Anchors: res.Anchors, Outliers: &quant.Outliers{
				Pos: slices.Delete(slices.Clone(res.Outliers.Pos), k, k+1),
				Val: slices.Delete(slices.Clone(res.Outliers.Val), k, k+1),
			}}
			if _, err := decompressScalarOracle(lost, g, cfg, eb); !errors.Is(err, quant.ErrCorrupt) {
				t.Fatalf("%v, value at %v lost: oracle: %v", lc, p, err)
			}
			for _, dev := range devs {
				if _, err := DecompressCtx(nil, dev, lost, g, cfg, eb); !errors.Is(err, quant.ErrCorrupt) {
					t.Fatalf("%v, value at %v lost, %d workers: %v", lc, p, dev.Workers(), err)
				}
			}
		}
	}
}
