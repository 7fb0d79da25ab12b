// Package datagen synthesizes deterministic stand-ins for the six SDRBench
// datasets used in the cuSZ-Hi evaluation (Table 3) plus the two extra
// fields of Fig. 6 (Hurricane, SCALE).
//
// The real datasets total >13 GiB and are not available offline, so each
// generator reproduces the qualitative character that governs a dataset's
// compressibility: the power spectrum slope (smoothness), clumpiness,
// anisotropy and noise floor. Fields are produced by spectral synthesis on a
// power-of-two base grid (internal/fft), resampled to the requested dims,
// then shaped by dataset-specific transforms. Everything is seeded, so runs
// are bit-reproducible.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fft"
)

// Field is a dense scalar field with row-major data, slowest dim first.
type Field struct {
	Name string
	Dims []int // e.g. [nz, ny, nx]; x fastest
	Data []float32
}

// Len returns the number of elements.
func (f *Field) Len() int { return len(f.Data) }

// SizeBytes returns the uncompressed payload size.
func (f *Field) SizeBytes() int { return 4 * len(f.Data) }

// Spec describes a generatable dataset.
type Spec struct {
	Name      string
	Info      string
	SmallDims []int // scaled-down default used by tests/benches
	PaperDims []int // dims from Table 3 of the paper
	gen       func(dims []int, seed int64) []float32
}

var registry = map[string]*Spec{
	"cesm": {
		Name:      "cesm",
		Info:      "CESM-ATM climate 2D (multi-scale smooth + zonal structure)",
		SmallDims: []int{450, 900},
		PaperDims: []int{1800, 3600},
		gen:       genCESM,
	},
	"jhtdb": {
		Name:      "jhtdb",
		Info:      "JHTDB isotropic turbulence 3D (k^-5/3 cascade)",
		SmallDims: []int{96, 96, 96},
		PaperDims: []int{512, 512, 512},
		gen:       genJHTDB,
	},
	"miranda": {
		Name:      "miranda",
		Info:      "Miranda hydrodynamics 3D (smooth layered density)",
		SmallDims: []int{64, 96, 96},
		PaperDims: []int{256, 384, 384},
		gen:       genMiranda,
	},
	"nyx": {
		Name:      "nyx",
		Info:      "Nyx cosmology 3D (lognormal clumpy baryon density)",
		SmallDims: []int{96, 96, 96},
		PaperDims: []int{512, 512, 512},
		gen:       genNyx,
	},
	"qmcpack": {
		Name:      "qmcpack",
		Info:      "QMCPack 3D orbital slices (smooth oscillatory bumps)",
		SmallDims: []int{64, 48, 48},
		PaperDims: []int{288 * 115, 69, 69},
		gen:       genQMCPack,
	},
	"rtm": {
		Name:      "rtm",
		Info:      "RTM seismic wavefield 3D (wavefronts over quiet background)",
		SmallDims: []int{112, 112, 64},
		PaperDims: []int{449, 449, 235},
		gen:       genRTM,
	},
	"hurricane": {
		Name:      "hurricane",
		Info:      "Hurricane Isabel 3D (vortex + turbulent detail); Fig. 6 input",
		SmallDims: []int{32, 128, 128},
		PaperDims: []int{100, 500, 500},
		gen:       genHurricane,
	},
	"scale": {
		Name:      "scale",
		Info:      "SCALE-LETKF weather 3D (thin, wide, moderately smooth); Fig. 6 input",
		SmallDims: []int{24, 192, 192},
		PaperDims: []int{98, 1200, 1200},
		gen:       genSCALE,
	},
}

// Names returns the registered dataset names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperNames returns the six datasets of Table 3, in paper order.
func PaperNames() []string {
	return []string{"cesm", "jhtdb", "miranda", "nyx", "qmcpack", "rtm"}
}

// Lookup returns the Spec for name.
func Lookup(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown dataset %q (have %v)", name, Names())
	}
	return s, nil
}

// DefaultDims returns the small or paper dims for name.
func DefaultDims(name string, full bool) ([]int, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if full {
		return append([]int(nil), s.PaperDims...), nil
	}
	return append([]int(nil), s.SmallDims...), nil
}

// Generate produces the named field at the given dims (nil selects the small
// default). The same (name, dims, seed) always yields identical data.
func Generate(name string, dims []int, seed int64) (*Field, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if dims == nil {
		dims = s.SmallDims
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("datagen: invalid dim %d for %q", d, name)
		}
	}
	dims = append([]int(nil), dims...)
	return &Field{Name: name, Dims: dims, Data: s.gen(dims, seed)}, nil
}

// ---------------------------------------------------------------------------
// Spectral synthesis machinery.

// nextPow2 returns the smallest power of two >= n, clamped to maxBase.
func nextPow2(n, maxBase int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	if p > maxBase {
		p = maxBase
	}
	return p
}

// spectral3 synthesizes a zero-mean, unit-variance random field whose power
// spectrum falls off as (k+k0)^slope with a Gaussian dissipation cutoff at
// cutFrac of the Nyquist wavenumber, on a (bz,by,bx) power-of-two grid.
// The cutoff reproduces a crucial property of real simulation output: a
// resolved solver damps the smallest scales, so fields are smooth at the
// grid spacing — which is what makes the paper's datasets compress to
// ratios in the hundreds at large error bounds.
func spectral3(bz, by, bx int, slope, k0, cutFrac float64, rng *rand.Rand) []float32 {
	g, err := fft.NewGrid3(bz, by, bx)
	if err != nil {
		panic(err) // dims are produced by nextPow2; cannot happen
	}
	// The cutoff scales with the shortest extent that has modes: a unit
	// extent (a 1-D or 2-D field, or one plane) has only wavenumber 0, and
	// taken as the shortest it would cut every other mode.
	minDim := 0
	for _, n := range [3]int{bz, by, bx} {
		if n > 1 && (minDim == 0 || n < minDim) {
			minDim = n
		}
	}
	kcut := cutFrac * float64(minDim) / 2
	if kcut <= 0 {
		kcut = math.Inf(1)
	}
	for z := 0; z < bz; z++ {
		kz := freqIndex(z, bz)
		for y := 0; y < by; y++ {
			ky := freqIndex(y, by)
			for x := 0; x < bx; x++ {
				kx := freqIndex(x, bx)
				k := math.Sqrt(float64(kz*kz + ky*ky + kx*kx))
				if k == 0 {
					continue // zero mean
				}
				amp := math.Pow(k+k0, slope/2) * math.Exp(-(k/kcut)*(k/kcut))
				phase := rng.Float64() * 2 * math.Pi
				re := amp * math.Cos(phase) * rng.NormFloat64()
				im := amp * math.Sin(phase) * rng.NormFloat64()
				*g.At(z, y, x) = complex(re, im)
			}
		}
	}
	if err := fft.Transform3(g, true); err != nil {
		panic(err)
	}
	out := make([]float32, len(g.Data))
	var mean, m2 float64
	for i, c := range g.Data {
		v := real(c)
		out[i] = float32(v)
		mean += v
	}
	mean /= float64(len(out))
	for _, v := range out {
		d := float64(v) - mean
		m2 += d * d
	}
	std := math.Sqrt(m2 / float64(len(out)))
	if std == 0 {
		std = 1
	}
	inv := float32(1 / std)
	fm := float32(mean)
	for i := range out {
		out[i] = (out[i] - fm) * inv
	}
	return out
}

// freqIndex maps array index i on an n-point grid to its signed frequency.
func freqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// resample3 trilinearly resamples a periodic base grid (bz,by,bx) to target
// dims (nz,ny,nx).
func resample3(base []float32, bz, by, bx, nz, ny, nx int) []float32 {
	if bz == nz && by == ny && bx == nx {
		out := make([]float32, len(base))
		copy(out, base)
		return out
	}
	out := make([]float32, nz*ny*nx)
	sz := float64(bz) / float64(nz)
	sy := float64(by) / float64(ny)
	sx := float64(bx) / float64(nx)
	idx := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) * sz
		z0 := int(fz)
		tz := fz - float64(z0)
		z1 := (z0 + 1) % bz
		for y := 0; y < ny; y++ {
			fy := float64(y) * sy
			y0 := int(fy)
			ty := fy - float64(y0)
			y1 := (y0 + 1) % by
			for x := 0; x < nx; x++ {
				fx := float64(x) * sx
				x0 := int(fx)
				tx := fx - float64(x0)
				x1 := (x0 + 1) % bx
				c000 := float64(base[(z0*by+y0)*bx+x0])
				c001 := float64(base[(z0*by+y0)*bx+x1])
				c010 := float64(base[(z0*by+y1)*bx+x0])
				c011 := float64(base[(z0*by+y1)*bx+x1])
				c100 := float64(base[(z1*by+y0)*bx+x0])
				c101 := float64(base[(z1*by+y0)*bx+x1])
				c110 := float64(base[(z1*by+y1)*bx+x0])
				c111 := float64(base[(z1*by+y1)*bx+x1])
				c00 := c000 + (c001-c000)*tx
				c01 := c010 + (c011-c010)*tx
				c10 := c100 + (c101-c100)*tx
				c11 := c110 + (c111-c110)*tx
				c0 := c00 + (c01-c00)*ty
				c1 := c10 + (c11-c10)*ty
				out[idx] = float32(c0 + (c1-c0)*tz)
				idx++
			}
		}
	}
	return out
}

// maxBaseDim caps the spectral base grid so full-size paper dims stay
// affordable in memory; the base field is trilinearly stretched beyond it.
const maxBaseDim = 256

// spectralField produces a normalized random field at arbitrary dims by
// synthesizing on a power-of-two base grid and resampling.
func spectralField(dims []int, slope, k0, cutFrac float64, seed int64) []float32 {
	nz, ny, nx := dims3(dims)
	bz := nextPow2(nz, maxBaseDim)
	by := nextPow2(ny, maxBaseDim)
	bx := nextPow2(nx, maxBaseDim)
	rng := rand.New(rand.NewSource(seed))
	base := spectral3(bz, by, bx, slope, k0, cutFrac, rng)
	return resample3(base, bz, by, bx, nz, ny, nx)
}

// dims3 normalizes 1-, 2- or 3-D dims to (nz, ny, nx).
func dims3(dims []int) (nz, ny, nx int) {
	switch len(dims) {
	case 1:
		return 1, 1, dims[0]
	case 2:
		return 1, dims[0], dims[1]
	case 3:
		return dims[0], dims[1], dims[2]
	default:
		// Collapse leading dims (e.g. QMCPack 4-D) into z.
		nz = 1
		for _, d := range dims[:len(dims)-2] {
			nz *= d
		}
		return nz, dims[len(dims)-2], dims[len(dims)-1]
	}
}

// hashNoise returns a deterministic pseudo-random value in [-1,1) from a
// coordinate, independent of grid resolution (splitmix64 finalizer).
func hashNoise(seed int64, i int) float32 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float32(int64(x>>11))/float32(1<<52) - 1
}

// ---------------------------------------------------------------------------
// Dataset-specific generators.

func genCESM(dims []int, seed int64) []float32 {
	_, ny, nx := dims3(dims)
	f := spectralField(dims, -3.0, 1.5, 0.45, seed^0xCE51)
	idx := 0
	for y := 0; y < ny; y++ {
		lat := (float64(y)/float64(ny) - 0.5) * math.Pi
		zonal := float32(2.2 * math.Cos(lat))
		for x := 0; x < nx; x++ {
			lon := float64(x) / float64(nx) * 2 * math.Pi
			wave := float32(0.4 * math.Sin(3*lon) * math.Cos(2*lat))
			f[idx] = f[idx] + zonal + wave + 0.012*hashNoise(seed, idx)
			idx++
		}
	}
	return f
}

func genJHTDB(dims []int, seed int64) []float32 {
	// Energy spectrum E(k) ~ k^-5/3 implies 3-D power ~ k^-11/3.
	f := spectralField(dims, -11.0/3, 1.0, 0.18, seed^0x7D8)
	for i := range f {
		f[i] += 0.002 * hashNoise(seed, i)
	}
	return f
}

func genMiranda(dims []int, seed int64) []float32 {
	nz, ny, nx := dims3(dims)
	base := spectralField(dims, -5.0, 2.0, 0.15, seed^0x318A)
	out := make([]float32, len(base))
	idx := 0
	for z := 0; z < nz; z++ {
		zf := float64(z) / float64(max(nz-1, 1))
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				// Two fluid layers with a perturbed interface; density-like.
				interface1 := 0.45 + 0.06*float64(base[idx])
				layer := math.Tanh((zf - interface1) * 14)
				out[idx] = float32(2.0+0.9*layer) + 0.12*base[idx]
				idx++
			}
		}
	}
	return out
}

func genNyx(dims []int, seed int64) []float32 {
	base := spectralField(dims, -4.0, 1.2, 0.35, seed^0x9B1)
	out := make([]float32, len(base))
	for i, v := range base {
		// Lognormal density contrast: highly clumpy, heavy positive tail.
		out[i] = float32(math.Exp(1.6 * float64(v)))
	}
	return out
}

func genQMCPack(dims []int, seed int64) []float32 {
	nz, ny, nx := dims3(dims)
	rng := rand.New(rand.NewSource(seed ^ 0x0C4))
	type orb struct {
		cy, cx, w, kx, ky, amp float64
	}
	orbs := make([]orb, 24)
	for i := range orbs {
		orbs[i] = orb{
			cy:  rng.Float64(),
			cx:  rng.Float64(),
			w:   0.05 + 0.12*rng.Float64(),
			kx:  (rng.Float64() - 0.5) * 14,
			ky:  (rng.Float64() - 0.5) * 14,
			amp: 0.3 + rng.Float64(),
		}
	}
	out := make([]float32, nz*ny*nx)
	idx := 0
	for z := 0; z < nz; z++ {
		// Each z-slice is an orbital-like pattern whose phase drifts slowly,
		// mimicking the stacked-orbital layout of the real 4-D file.
		drift := 2 * math.Pi * float64(z) / float64(max(nz, 1))
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(ny)
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(nx)
				var v float64
				for _, o := range orbs {
					dy := fy - o.cy
					dx := fx - o.cx
					r2 := dx*dx + dy*dy
					if r2 > 9*o.w*o.w {
						continue
					}
					env := math.Exp(-r2 / (2 * o.w * o.w))
					v += o.amp * env * math.Cos(o.kx*dx+o.ky*dy+drift)
				}
				out[idx] = float32(v)
				idx++
			}
		}
	}
	return out
}

func genRTM(dims []int, seed int64) []float32 {
	nz, ny, nx := dims3(dims)
	rng := rand.New(rand.NewSource(seed ^ 0x27A))
	type src struct {
		cz, cy, cx, r0, k, amp float64
	}
	srcs := make([]src, 5)
	for i := range srcs {
		srcs[i] = src{
			cz:  rng.Float64(),
			cy:  rng.Float64(),
			cx:  rng.Float64(),
			r0:  0.15 + 0.3*rng.Float64(),
			k:   18 + 14*rng.Float64(),
			amp: 0.5 + rng.Float64(),
		}
		if ny == 1 && nz == 1 {
			// A line field samples only z = y = 0: centre each source on it,
			// so every shell (r0 ≤ 0.45) crosses it inside x ∈ [0, 1).
			srcs[i].cz, srcs[i].cy = 0, 0
		}
	}
	out := make([]float32, nz*ny*nx)
	idx := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(max(nz, 1))
		// Weak layered background (reflectors).
		bg := 0.02 * math.Sin(18*fz)
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(ny)
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(nx)
				v := bg
				for _, s := range srcs {
					dz := fz - s.cz
					dy := fy - s.cy
					dx := fx - s.cx
					r := math.Sqrt(dz*dz + dy*dy + dx*dx)
					d := r - s.r0
					if d*d > 0.04 {
						continue
					}
					// A band-limited expanding wavefront shell.
					v += s.amp * math.Sin(s.k*r) * math.Exp(-d*d/0.005)
				}
				out[idx] = float32(v)
				idx++
			}
		}
	}
	return out
}

func genHurricane(dims []int, seed int64) []float32 {
	nz, ny, nx := dims3(dims)
	f := spectralField(dims, -3.0, 1.0, 0.35, seed^0x44C)
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			fy := float64(y)/float64(ny) - 0.52
			for x := 0; x < nx; x++ {
				fx := float64(x)/float64(nx) - 0.48
				r := math.Sqrt(fx*fx + fy*fy)
				// Vortex: azimuthal wind speed peaking at the eyewall.
				eye := 3.2 * r / (0.02 + 12*r*r)
				f[idx] = 0.7*f[idx] + float32(eye) + 0.006*hashNoise(seed, idx)
				idx++
			}
		}
	}
	return f
}

func genSCALE(dims []int, seed int64) []float32 {
	f := spectralField(dims, -3.2, 1.0, 0.40, seed^0x5CA1)
	for i := range f {
		f[i] += 0.008 * hashNoise(seed, i)
	}
	return f
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
