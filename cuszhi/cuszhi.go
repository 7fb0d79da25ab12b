// Package cuszhi is the public API of this repository's Go reproduction of
// cuSZ-Hi, the high-ratio error-bounded lossy compressor for scientific
// floating-point data (Wu, Pan, Liu, Tian, et al., SC 2025).
//
// Quickstart:
//
//	c, _ := cuszhi.New(cuszhi.ModeCR)
//	blob, _ := c.Compress(data, []int{nz, ny, nx}, 1e-3) // relative eb
//	recon, dims, _ := c.Decompress(blob)
//
// Error bounds are value-range-relative by default, matching the paper's
// evaluation methodology (§6.1.4); CompressAbs takes an absolute bound.
// Mode selects between the two cuSZ-Hi lossless pipelines (§5.2.3) and the
// paper's baselines, which this repository also implements in full.
package cuszhi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// Mode identifies a compressor assembly.
type Mode string

// Available modes.
const (
	// ModeCR is cuSZ-Hi-CR: the compression-ratio-preferred mode
	// (auto-tuned multi-dimensional interpolation, level-order code
	// reordering, HF-RRE4-TCMS8-RZE1 lossless pipeline).
	ModeCR Mode = "hi-cr"
	// ModeTP is cuSZ-Hi-TP: the throughput-preferred mode
	// (TCMS1-BIT1-RRE1 lossless pipeline, no Huffman stage).
	ModeTP Mode = "hi-tp"
	// ModeCuszI is the cuSZ-I baseline (interpolation + Huffman).
	ModeCuszI Mode = "cusz-i"
	// ModeCuszIB is the cuSZ-IB baseline (cuSZ-I + Bitcomp surrogate).
	ModeCuszIB Mode = "cusz-ib"
	// ModeCuszL is the cuSZ-L baseline (Lorenzo + Huffman).
	ModeCuszL Mode = "cusz-l"
	// ModeFzGPU is the FZ-GPU baseline (Lorenzo dual-quant + bit-shuffle
	// de-redundancy), a throughput-oriented backend chunk codec. Backend
	// modes always write heterogeneous-capable (format v5) containers —
	// single-chunk unless WithChunkPlanes shards the field.
	ModeFzGPU Mode = "fzgpu"
	// ModeSZp is the cuSZp2 surrogate (1-D delta prediction + per-block
	// fixed-length packing), a backend chunk codec.
	ModeSZp Mode = "szp"
	// ModeSZx is the cuSZx/SZx surrogate (constant/truncated-mantissa
	// blocks), a backend chunk codec.
	ModeSZx Mode = "szx"
	// ModeAuto selects an assembly per input by sample compression — the
	// auto-selection mechanism sketched as future work in §7 of the paper.
	ModeAuto Mode = "auto"
)

// Modes lists every fixed-assembly mode (ModeAuto composes these together
// with the backend modes).
func Modes() []Mode {
	return []Mode{ModeCR, ModeTP, ModeCuszI, ModeCuszIB, ModeCuszL}
}

// BackendModes lists the alternate-backend chunk codecs: registry-
// dispatched compressors without a predictor/pipeline assembly, whose
// containers are always format v5 (the codec wire ID lives in the chunk
// frames and the index footer).
func BackendModes() []Mode {
	return []Mode{ModeFzGPU, ModeSZp, ModeSZx}
}

// Option customizes a Compressor.
type Option func(*Compressor)

// WithWorkers sets the simulated device's parallel width (default:
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *Compressor) { c.dev = gpusim.New(n) }
}

// WithChunkPlanes switches Compress to the chunked path: the field is
// sharded into slabs of n planes along the slowest dimension and the
// shards are compressed concurrently into a multi-chunk container — the
// same bytes a stream.Writer writes: format v4 for the assemblies, v5 for
// the backend modes and ModeAuto. n <= 0 keeps the one-shot path.
// Decompress handles every format transparently.
func WithChunkPlanes(n int) Option {
	return func(c *Compressor) { c.chunkPlanes = n }
}

// WithAutoPolicy sets how ModeAuto ranks the candidates' size estimates:
// "best-ratio" (default) takes the smallest estimate, "throughput" the
// fastest codec within 15% of it, and "ratio-floor:F" the fastest codec
// whose estimated compression ratio is at least F. New rejects unknown
// spellings, and rejects the option entirely for non-auto modes.
func WithAutoPolicy(name string) Option {
	return func(c *Compressor) { c.policyName = name }
}

// Compressor is a reusable, goroutine-safe compressor instance.
type Compressor struct {
	mode        Mode
	spec        core.EncodeSpec // resolved codec (nil: auto) and policy
	dev         *gpusim.Device
	chunkPlanes int
	policyName  string // WithAutoPolicy spelling, "" = default
}

// New returns a Compressor for the given mode.
func New(mode Mode, opts ...Option) (*Compressor, error) {
	c := &Compressor{mode: mode, dev: gpusim.Default}
	for _, o := range opts {
		o(c)
	}
	spec, err := core.ResolveEncodeSpec(string(mode), c.policyName, 0)
	if err != nil {
		return nil, fmt.Errorf("cuszhi: %w", err)
	}
	c.spec = spec
	return c, nil
}

// Mode reports the compressor's mode.
func (c *Compressor) Mode() Mode { return c.mode }

// Compress encodes data with the given shape (slowest dim first) under a
// value-range-relative error bound relEB, as in the paper's experiments.
func (c *Compressor) Compress(data []float32, dims []int, relEB float64) ([]byte, error) {
	if relEB <= 0 {
		return nil, fmt.Errorf("cuszhi: relative error bound %v must be positive", relEB)
	}
	return c.CompressAbs(data, dims, metrics.AbsEB(data, relEB))
}

// CompressAbs encodes data under an absolute error bound.
func (c *Compressor) CompressAbs(data []float32, dims []int, absEB float64) ([]byte, error) {
	spec, cp := c.spec, c.chunkPlanes
	if cp <= 0 {
		if spec.Codec == nil {
			// One-shot auto mode selects once, over the whole field.
			sel, err := core.AutoSelect(nil, c.dev, data, dims, absEB, spec.Policy)
			if err != nil {
				return nil, err
			}
			if spec, err = core.ResolveEncodeSpec(sel.Codec.Name(), "", 0); err != nil {
				return nil, err
			}
		}
		if spec.Version < 5 {
			// An assembly writes a one-shot (v1) container.
			return spec.Codec.Compress(nil, c.dev, data, dims, absEB)
		}
		// A backend's payload only lives inside v5 chunk frames: one chunk
		// covers the field.
		if len(dims) == 0 {
			return nil, fmt.Errorf("cuszhi: empty dims")
		}
		cp = dims[0]
	}
	spec.EB = absEB
	return core.CompressChunked(c.dev, data, dims, cp, spec)
}

// Decompress decodes a container produced by any mode, returning the
// reconstruction and its dims.
func (c *Compressor) Decompress(blob []byte) ([]float32, []int, error) {
	return core.DecompressCtx(nil, c.dev, blob)
}

// Compress is a convenience one-shot using ModeCR.
func Compress(data []float32, dims []int, relEB float64) ([]byte, error) {
	c, err := New(ModeCR)
	if err != nil {
		return nil, err
	}
	return c.Compress(data, dims, relEB)
}

// Decompress is a convenience one-shot decoder.
func Decompress(blob []byte) ([]float32, []int, error) {
	return core.DecompressCtx(nil, gpusim.Default, blob)
}

// Stats summarizes a compression run.
type Stats struct {
	OrigBytes  int
	CompBytes  int
	Ratio      float64 // |X| / |Z|
	BitRate    float64 // bits per element
	PSNR       float64 // dB, value-range based
	MaxErr     float64 // L-infinity error
	WithinEB   bool    // max error within the given absolute bound
	AbsErrorEB float64
}

// Evaluate computes Stats for an (orig, blob, recon) triple under absolute
// bound absEB.
func Evaluate(orig []float32, blob []byte, recon []float32, absEB float64) Stats {
	d := metrics.Compare(orig, recon)
	return Stats{
		OrigBytes:  4 * len(orig),
		CompBytes:  len(blob),
		Ratio:      metrics.CR(4*len(orig), len(blob)),
		BitRate:    metrics.BitRate(len(orig), len(blob)),
		PSNR:       d.PSNR,
		MaxErr:     d.MaxErr,
		WithinEB:   metrics.WithinBound(orig, recon, absEB),
		AbsErrorEB: absEB,
	}
}

// ContainerInfo summarizes a compressed container's header without
// decoding any payloads.
type ContainerInfo struct {
	Version     int
	Dims        []int
	AbsErrorEB  float64 // the container's bound; relative when RelativeEB
	RelativeEB  bool    // v3+ streams: bound is value-range-relative
	NumChunks   int     // 0 for one-shot (v1) containers
	ChunkPlanes int     // 0 for one-shot (v1) containers
	HasIndex    bool    // v4/v5: a chunk-index footer makes the container seekable
	// ChunkCodecs counts chunks per codec mode name for heterogeneous (v5)
	// containers, read from the chunk-index footer alone; nil otherwise.
	ChunkCodecs map[string]int
	// ChunkCRs holds each chunk's achieved compression ratio in plane
	// order, derived from the index footer's frame extents (v4/v5
	// containers with an index); nil otherwise. Next to auto mode's
	// estimated ratios it shows how the selection actually landed,
	// per chunk.
	ChunkCRs []float64
}

// Inspect reads a container's header (any format version).
func Inspect(blob []byte) (*ContainerInfo, error) {
	info, err := core.Inspect(blob)
	if err != nil {
		return nil, err
	}
	return &ContainerInfo{Version: info.Version, Dims: info.Dims, AbsErrorEB: info.EB,
		RelativeEB: info.RelEB, NumChunks: info.NumChunks, ChunkPlanes: info.ChunkPlanes,
		HasIndex: info.HasIndex, ChunkCodecs: info.ChunkCodecs, ChunkCRs: info.ChunkCRs}, nil
}

// AbsEB converts a value-range-relative error bound to the absolute bound
// used by Eq. 1 of the paper (relEB times the data's value range).
func AbsEB(data []float32, relEB float64) float64 {
	return metrics.AbsEB(data, relEB)
}

// GenerateDataset synthesizes one of the repository's benchmark stand-in
// fields (cesm, jhtdb, miranda, nyx, qmcpack, rtm, hurricane, scale) at the
// given dims (nil = default small dims), returning the data and its dims.
// Fields are deterministic per (name, dims, seed).
func GenerateDataset(name string, dims []int, seed int64) ([]float32, []int, error) {
	f, err := datagen.Generate(name, dims, seed)
	if err != nil {
		return nil, nil, err
	}
	return f.Data, f.Dims, nil
}
