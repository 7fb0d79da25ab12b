package cuszhi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
)

func TestAllModesRoundTrip(t *testing.T) {
	f, err := datagen.Generate("nyx", []int{32, 48, 48}, 1)
	if err != nil {
		t.Fatal(err)
	}
	relEB := 1e-3
	absEB := metrics.AbsEB(f.Data, relEB)
	for _, m := range Modes() {
		c, err := New(m, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if c.Mode() != m {
			t.Fatalf("Mode() = %q", c.Mode())
		}
		blob, err := c.Compress(f.Data, f.Dims, relEB)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		recon, dims, err := c.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(dims) != 3 || dims[0] != 32 {
			t.Fatalf("%s: dims %v", m, dims)
		}
		st := Evaluate(f.Data, blob, recon, absEB)
		if !st.WithinEB {
			t.Fatalf("%s: bound violated, max err %v > %v", m, st.MaxErr, absEB)
		}
		if st.Ratio <= 1 {
			t.Fatalf("%s: no compression (ratio %.2f)", m, st.Ratio)
		}
		if math.Abs(st.BitRate-32/st.Ratio) > 1e-9 {
			t.Fatalf("%s: inconsistent bitrate", m)
		}
	}
}

func TestOneShotHelpers(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{24, 32, 32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Compress(f.Data, f.Dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != f.Len() || dims[2] != 32 {
		t.Fatal("one-shot round trip shape mismatch")
	}
	if !metrics.WithinBound(f.Data, recon, metrics.AbsEB(f.Data, 1e-3)) {
		t.Fatal("one-shot bound violated")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("want unknown mode error")
	}
	c, _ := New(ModeCR)
	if _, err := c.Compress([]float32{1, 2}, []int{2}, 0); err == nil {
		t.Fatal("want relEB error")
	}
	if _, err := c.Compress([]float32{1, 2}, []int{3}, 1e-3); err == nil {
		t.Fatal("want dims error")
	}
	if _, _, err := c.Decompress([]byte("garbage")); err == nil {
		t.Fatal("want corrupt error")
	}
}

// TestCompressRejectsBadDims: every mode, one-shot and chunked, refuses
// dims that disagree with the value count with an error — never a panic.
func TestCompressRejectsBadDims(t *testing.T) {
	data := make([]float32, 100)
	for i := range data {
		data[i] = float32(i % 7)
	}
	modes := append(append(Modes(), BackendModes()...), ModeAuto)
	for _, mode := range modes {
		for _, cp := range []int{0, 4} {
			c, err := New(mode, WithChunkPlanes(cp))
			if err != nil {
				t.Fatal(err)
			}
			for _, dims := range [][]int{nil, {10, 10, 10}, {-4, -25}} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s chunk=%d dims=%v: panic: %v", mode, cp, dims, r)
						}
					}()
					if _, err := c.CompressAbs(data, dims, 0.01); err == nil {
						t.Errorf("%s chunk=%d dims=%v: accepted", mode, cp, dims)
					}
				}()
			}
		}
	}
}

func TestCRModeHighestRatioOnSmoothField(t *testing.T) {
	f, err := datagen.Generate("rtm", []int{56, 56, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[Mode]float64{}
	for _, m := range Modes() {
		c, _ := New(m, WithWorkers(4))
		blob, err := c.Compress(f.Data, f.Dims, 1e-2)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		ratios[m] = metrics.CR(f.SizeBytes(), len(blob))
	}
	// Table 4's qualitative result: the Hi modes beat the open baselines.
	best := ratios[ModeCR]
	if ratios[ModeTP] > best {
		best = ratios[ModeTP]
	}
	if best <= ratios[ModeCuszI] || best <= ratios[ModeCuszL] {
		t.Fatalf("Hi modes should lead: %v", ratios)
	}
}

func TestModeAuto(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{48, 64, 64}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ModeAuto, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	relEB := 1e-2
	blob, err := c.Compress(f.Data, f.Dims, relEB)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	absEB := metrics.AbsEB(f.Data, relEB)
	st := Evaluate(f.Data, blob, recon, absEB)
	if !st.WithinEB {
		t.Fatal("auto mode violated the bound")
	}
	// Auto must do at least as well as the worst fixed mode; on smooth
	// data it should land at or near hi-cr's ratio.
	cr, _ := New(ModeCR, WithWorkers(4))
	crBlob, err := cr.Compress(f.Data, f.Dims, relEB)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(blob)) > float64(len(crBlob))*1.05 {
		t.Fatalf("auto (%d) much worse than hi-cr (%d)", len(blob), len(crBlob))
	}
}

func TestConcurrentUse(t *testing.T) {
	// A single Compressor must be safe for concurrent use.
	f, err := datagen.Generate("nyx", []int{24, 32, 32}, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(ModeTP, WithWorkers(2))
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			blob, err := c.Compress(f.Data, f.Dims, 1e-3)
			if err != nil {
				errs <- err
				return
			}
			recon, _, err := c.Decompress(blob)
			if err != nil {
				errs <- err
				return
			}
			if !metrics.WithinBound(f.Data, recon, metrics.AbsEB(f.Data, 1e-3)) {
				errs <- errBound
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errBound = fmt.Errorf("bound violated")

func Test4DInput(t *testing.T) {
	// QMCPack-style 4-D dims collapse internally but round-trip with the
	// original shape.
	f, err := datagen.Generate("qmcpack", []int{6, 8, 20, 20}, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(ModeCR, WithWorkers(4))
	blob, err := c.Compress(f.Data, f.Dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 4 || dims[0] != 6 || dims[3] != 20 {
		t.Fatalf("dims = %v", dims)
	}
	if !metrics.WithinBound(f.Data, recon, metrics.AbsEB(f.Data, 1e-3)) {
		t.Fatal("4D bound violated")
	}
}

func TestNaNValuesPreserved(t *testing.T) {
	// Non-finite values become outliers and survive losslessly.
	f, err := datagen.Generate("miranda", []int{20, 20, 20}, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := append([]float32(nil), f.Data...)
	data[123] = float32(math.NaN())
	data[4567] = float32(math.Inf(1))
	c, _ := New(ModeCR, WithWorkers(4))
	blob, err := c.CompressAbs(data, f.Dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(recon[123])) {
		t.Fatalf("NaN not preserved: %v", recon[123])
	}
	if !math.IsInf(float64(recon[4567]), 1) {
		t.Fatalf("+Inf not preserved: %v", recon[4567])
	}
	for i, v := range recon {
		if i == 123 || i == 4567 {
			continue
		}
		if math.Abs(float64(data[i])-float64(v)) > 1e-3*(1+1e-6) {
			t.Fatalf("bound violated at %d near non-finite values", i)
		}
	}
}

func TestPublicHelpers(t *testing.T) {
	data, dims, err := GenerateDataset("nyx", []int{8, 8, 8}, 1)
	if err != nil || len(data) != 512 || dims[0] != 8 {
		t.Fatalf("GenerateDataset: %v %v", err, dims)
	}
	if _, _, err := GenerateDataset("nope", nil, 1); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if eb := AbsEB([]float32{0, 10}, 1e-2); eb != 0.1 {
		t.Fatalf("AbsEB = %v", eb)
	}
}
