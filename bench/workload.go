package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/datagen"
)

// workload is one benchmark input: a seeded field built from 32-plane
// slabs, the mode its store is written with, and what the measured phase
// does with it.
type workload struct {
	name  string
	why   string
	kinds []string // generator per slab, cycled; "noise" is uniform on [-1, 1)
	slabs int
	mode  cuszhi.Mode
	// relEB stores the field under a per-shard relative bound (format v5
	// auto stores); otherwise the bound is absolute, relEB × value range.
	relEB bool
	// windows ends the measured phase in an open loop of plane-window
	// reads; its op metrics then describe windows, not round trips.
	windows bool
}

// The four workloads. Each stresses a different layer, and each has a
// partner on which a given optimisation should read as "no change".
var workloads = []workload{
	{
		name:  "cr-smooth",
		why:   "ratio-preferred hi-cr path on a smooth Miranda-like field: interp predict+quant and Huffman dominate, I/O barely registers",
		kinds: []string{"miranda"}, slabs: 6, mode: cuszhi.ModeCR,
	},
	{
		name:  "tp-turb",
		why:   "hi-tp on a JHTDB-like field: same predictor, bitplane pipeline instead of Huffman, more store bytes through frame+CRC and I/O",
		kinds: []string{"jhtdb"}, slabs: 6, mode: cuszhi.ModeTP,
	},
	{
		name: "auto-mixed",
		why:  "auto mode over smooth, turbulent and noise slabs: the only workload where the estimator and a backend codec (szp) do real work",
		// Uniform noise, not Gaussian: on N(0,1) slabs hi-cr and szp land
		// within 4% of each other, so the pick, and with it the run's
		// work, would flip from seed to seed. JHTDB-like, not Nyx-like,
		// slabs: a lognormal slab's tail sets the PSNR, which then swings
		// by 6 dB across seeds.
		kinds: []string{"miranda", "jhtdb", "noise"}, slabs: 6, mode: cuszhi.ModeAuto, relEB: true,
	},
	{
		name: "window-reads",
		why:  "open-loop random 8-plane windows over a sealed SCALE-like hi-cr store: index, ReadAt, CRC and whole-shard decode, no encode",
		// SCALE-like, not Nyx-like: under one global bound a lognormal
		// Nyx field's extreme tail sets the range, and its ratio swings
		// from 67 to 368 across seeds.
		kinds: []string{"scale"}, slabs: 8, mode: cuszhi.ModeCR, windows: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// relEB is the error bound of every workload, relative to the value range
// (of the whole field for absolute-bound stores, of each shard for auto).
const relEB = 1e-3

// size fixes the input geometry. Full runs use 256×256 planes; quick runs
// (tests) use 32×32 planes and two slabs.
type size struct {
	ny, nx int
	slabs  int // overrides workload.slabs when > 0
}

var (
	fullSize  = size{ny: 256, nx: 256}
	quickSize = size{ny: 32, nx: 32, slabs: 2}
)

func (w workload) dims(s size) []int {
	n := w.slabs
	if s.slabs > 0 {
		n = s.slabs
	}
	return []int{n * stream.DefaultChunkPlanes, s.ny, s.nx}
}

// generate builds the workload's field slab by slab. Each slab is an
// independent field seeded from (seed, slab index), so generation never
// needs the spectral grid of the whole field; slab seams fall exactly on
// shard boundaries, where the codec starts afresh anyway.
func (w workload) generate(s size, seed int64) ([]float32, []int, error) {
	dims := w.dims(s)
	slabDims := []int{stream.DefaultChunkPlanes, s.ny, s.nx}
	n := slabDims[0] * s.ny * s.nx
	field := make([]float32, 0, dims[0]*s.ny*s.nx)
	for k := 0; k < dims[0]/slabDims[0]; k++ {
		kind := w.kinds[k%len(w.kinds)]
		slabSeed := seed*1_000_003 + int64(k)
		if kind == "noise" {
			rng := rand.New(rand.NewSource(slabSeed))
			for i := 0; i < n; i++ {
				field = append(field, float32(2*rng.Float64()-1))
			}
			continue
		}
		f, err := datagen.Generate(kind, slabDims, slabSeed)
		if err != nil {
			return nil, nil, err
		}
		field = append(field, f.Data...)
	}
	return field, dims, nil
}

// writeRaw stores a field as little-endian float32 bytes.
func writeRaw(path string, field []float32) error {
	buf := make([]byte, 4*len(field))
	for i, v := range field {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

// decodeRaw converts little-endian float32 bytes into dst (grown if short).
func decodeRaw(dst []float32, buf []byte) []float32 {
	n := len(buf) / 4
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return dst
}
