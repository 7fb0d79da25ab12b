// Package experiments is the shared harness behind cmd/benchtab and
// bench_test.go: a registry of all eight evaluated compressors, dataset
// loading with caching, and single-run measurement, mirroring the
// evaluation setup of §6.1.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fzgpu"
	"repro/internal/gpusim"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/szp"
	"repro/internal/szx"
	"repro/internal/zfp"
)

// Compressor is one evaluated compressor.
type Compressor struct {
	Name string
	// FixedEB reports whether the compressor honours a point-wise error
	// bound (cuZFP does not; it is fixed-rate).
	FixedEB bool
	// Compress encodes data under a value-range-relative error bound
	// (ignored by fixed-rate compressors).
	Compress func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error)
	// Decompress decodes a blob from Compress.
	Decompress func(dev *gpusim.Device, blob []byte) ([]float32, error)
}

func coreCompressor(name string, opts core.Options) Compressor {
	return Compressor{
		Name:    name,
		FixedEB: true,
		Compress: func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error) {
			return core.CompressCtx(nil, dev, data, dims, metrics.AbsEB(data, relEB), opts)
		},
		Decompress: func(dev *gpusim.Device, blob []byte) ([]float32, error) {
			out, _, err := core.DecompressCtx(nil, dev, blob)
			return out, err
		},
	}
}

// HiCR returns the cuSZ-Hi-CR compressor entry.
func HiCR() Compressor { return coreCompressor("cuSZ-Hi-CR", core.HiCR()) }

// HiTP returns the cuSZ-Hi-TP compressor entry.
func HiTP() Compressor { return coreCompressor("cuSZ-Hi-TP", core.HiTP()) }

// CuszL returns the cuSZ-L baseline entry.
func CuszL() Compressor { return coreCompressor("cuSZ-L", core.CuszL()) }

// CuszI returns the cuSZ-I baseline entry.
func CuszI() Compressor { return coreCompressor("cuSZ-I", core.CuszI()) }

// CuszIB returns the cuSZ-IB baseline entry.
func CuszIB() Compressor { return coreCompressor("cuSZ-IB", core.CuszIB()) }

// CuSZp2 returns the cuSZp2 baseline entry.
func CuSZp2() Compressor {
	return Compressor{
		Name:    "cuSZp2",
		FixedEB: true,
		Compress: func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error) {
			return szp.CompressCtx(nil, dev, data, metrics.AbsEB(data, relEB))
		},
		Decompress: func(dev *gpusim.Device, blob []byte) ([]float32, error) {
			return szp.DecompressCtx(nil, dev, blob)
		},
	}
}

// FZGPU returns the FZ-GPU baseline entry.
func FZGPU() Compressor {
	return Compressor{
		Name:    "FZ-GPU",
		FixedEB: true,
		Compress: func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error) {
			return fzgpu.CompressCtx(nil, dev, data, dims, metrics.AbsEB(data, relEB))
		},
		Decompress: func(dev *gpusim.Device, blob []byte) ([]float32, error) {
			recon, _, err := fzgpu.DecompressCtx(nil, dev, blob)
			return recon, err
		},
	}
}

// CuZFP returns the cuZFP baseline entry at a fixed (possibly fractional)
// rate in bits/value.
func CuZFP(rate float64) Compressor {
	return Compressor{
		Name:    fmt.Sprintf("cuZFP(r=%g)", rate),
		FixedEB: false,
		Compress: func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error) {
			return zfp.CompressRate(dev, data, dims, rate)
		},
		Decompress: func(dev *gpusim.Device, blob []byte) ([]float32, error) {
			out, _, err := zfp.Decompress(dev, blob)
			return out, err
		},
	}
}

// Table4Compressors returns the fixed-eb compressors of Table 4, in column
// order.
func Table4Compressors() []Compressor {
	return []Compressor{HiCR(), HiTP(), CuszL(), CuszI(), CuszIB(), CuSZp2(), FZGPU()}
}

// ---------------------------------------------------------------------------
// Dataset cache.

var (
	dsMu    sync.Mutex
	dsCache = map[string]*datagen.Field{}
)

// Dataset returns the named dataset at its small (or paper-sized, if full)
// dims, cached across calls. seed selects the realization.
func Dataset(name string, full bool, seed int64) (*datagen.Field, error) {
	key := fmt.Sprintf("%s/%v/%d", name, full, seed)
	dsMu.Lock()
	defer dsMu.Unlock()
	if f, ok := dsCache[key]; ok {
		return f, nil
	}
	dims, err := datagen.DefaultDims(name, full)
	if err != nil {
		return nil, err
	}
	f, err := datagen.Generate(name, dims, seed)
	if err != nil {
		return nil, err
	}
	dsCache[key] = f
	return f, nil
}

// ---------------------------------------------------------------------------
// Single measured run.

// RunResult is one (compressor, dataset, eb) measurement.
type RunResult struct {
	CR         float64
	BitRate    float64
	PSNR       float64
	MaxErr     float64
	CompBytes  int
	CompGiBps  float64
	DecGiBps   float64
	BoundOK    bool
	AbsErrorEB float64
}

// Run compresses and decompresses f with c at relEB, measuring ratio,
// distortion and simulated-kernel throughput.
func Run(dev *gpusim.Device, c Compressor, f *datagen.Field, relEB float64) (RunResult, error) {
	var r RunResult
	t0 := time.Now()
	blob, err := c.Compress(dev, f.Data, f.Dims, relEB)
	compSecs := time.Since(t0).Seconds()
	if err != nil {
		return r, fmt.Errorf("%s compress: %w", c.Name, err)
	}
	t1 := time.Now()
	recon, err := c.Decompress(dev, blob)
	decSecs := time.Since(t1).Seconds()
	if err != nil {
		return r, fmt.Errorf("%s decompress: %w", c.Name, err)
	}
	if len(recon) != f.Len() {
		return r, fmt.Errorf("%s: decompressed %d of %d values", c.Name, len(recon), f.Len())
	}
	d := metrics.Compare(f.Data, recon)
	absEB := metrics.AbsEB(f.Data, relEB)
	r = RunResult{
		CR:         metrics.CR(f.SizeBytes(), len(blob)),
		BitRate:    metrics.BitRate(f.Len(), len(blob)),
		PSNR:       d.PSNR,
		MaxErr:     d.MaxErr,
		CompBytes:  len(blob),
		CompGiBps:  metrics.GiBps(f.SizeBytes(), compSecs),
		DecGiBps:   metrics.GiBps(f.SizeBytes(), decSecs),
		BoundOK:    !c.FixedEB || metrics.WithinBound(f.Data, recon, absEB),
		AbsErrorEB: absEB,
	}
	if c.FixedEB && !metrics.WithinBound(f.Data, recon, absEB) {
		return r, fmt.Errorf("%s: error bound violated (max %v > %v)", c.Name, d.MaxErr, absEB)
	}
	return r, nil
}

// HiQuantCodes produces the cuSZ-Hi predictor's quantization-code stream
// for f at relEB, optionally level-order reordered — the input of Fig. 5
// and the lossless benchmarking of Fig. 6.
func HiQuantCodes(dev *gpusim.Device, f *datagen.Field, relEB float64, reorder bool) ([]uint8, error) {
	g := interp.NewGrid(f.Dims)
	cfg := interp.HiConfig()
	res, err := interp.CompressCtx(nil, dev, f.Data, g, cfg, metrics.AbsEB(f.Data, relEB))
	if err != nil {
		return nil, err
	}
	if !reorder {
		return res.Codes, nil
	}
	out := make([]uint8, len(res.Codes))
	quant.Gather(dev, f.Dims, cfg.AnchorStride, res.Codes, out)
	return out, nil
}

// SZ3LikeEntry returns the CPU-style global-interpolation configuration —
// the high-ratio reference point of the paper's introduction.
func SZ3LikeEntry() Compressor { return coreCompressor("SZ3-like", core.SZ3Like()) }

// SZx returns the ultra-fast constant-block compressor archetype (cuSZx,
// §2.2 of the paper; excluded from its main tables for low ratio).
func SZx() Compressor {
	return Compressor{
		Name:    "SZx",
		FixedEB: true,
		Compress: func(dev *gpusim.Device, data []float32, dims []int, relEB float64) ([]byte, error) {
			return szx.CompressCtx(nil, dev, data, metrics.AbsEB(data, relEB))
		},
		Decompress: func(dev *gpusim.Device, blob []byte) ([]float32, error) {
			return szx.DecompressCtx(nil, dev, blob)
		},
	}
}
