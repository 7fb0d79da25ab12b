// Package lorenzo implements the dual-quantization Lorenzo predictor used
// by the cuSZ-L baseline (Tian et al., PACT'20) and, as its prequantization
// stage, by the FZ-GPU baseline.
//
// Dual quantization first rounds every value to an integer lattice
// qv = round(v / 2ε), then takes the exact integer first-order Lorenzo
// difference of the lattice. Because the difference is computed on already
// quantized integers there is no feedback loop: compression is one parallel
// pass and decompression is a 3-D inclusive prefix sum (one scan per
// dimension), exactly the structure the GPU kernels exploit.
//
// The compression kernel histograms the quantization codes in the same
// sweep that produces them (Result.Freq), so the downstream Huffman encoder
// never re-scans the symbol stream. The *Ctx entry points draw all working
// buffers — and the kernel closures themselves — from a reusable arena.Ctx,
// so steady-state compress/decompress performs near-zero heap allocations.
//
// The hot passes run as batched row kernels: the quantization sweep walks
// whole grid rows with pinned neighbor-row views and an 8-wide unrolled
// prediction body (missing boundary rows substitute a shared zero row, so
// one kernel covers interior and halo alike), and the prefix-sum scans add
// and convert rows through 8-wide unrolled vector helpers. Every batched
// pass has a per-point reference oracle in the package tests; the two are
// bit-identical by construction (integer lattice arithmetic plus unchanged
// float op order) and the equivalence tests assert it.
package lorenzo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
	"repro/internal/gpusim"
	"repro/internal/quant"
)

// Radius is the symmetric code radius; deltas within it map to codes
// 1..2*Radius, code 0 escapes to the side channel.
const Radius = 512

// Alphabet is the Huffman alphabet size for Lorenzo codes.
const Alphabet = 2*Radius + 2

// latticeCap bounds |qv| so that integer arithmetic cannot overflow during
// the prefix-sum reconstruction; values needing a larger lattice coordinate
// are preserved via the value-outlier list.
const latticeCap = int64(1) << 50

// chunkShift is the log2 of the compression kernel's chunk size.
const chunkShift = 16

// lanes is the unroll width of the batched kernels. Kernel chunk boundaries
// are lane-aligned (gpusim.LaunchBatched), so only global tails run scalar.
const lanes = 8

// auxKey is this package's scratch slot in an arena.Ctx; chunksKey holds
// the per-chunk escape collectors (arena batch slots, persistent across
// Reset so steady-state appends never grow).
var (
	auxKey    = arena.NewAuxKey()
	chunksKey = arena.NewAuxKey()
)

// escChunk collects one chunk's escapes and value outliers; the backing
// arrays persist in the batch slot so steady-state appends never grow.
type escChunk struct {
	deltas  []int64
	valPos  []int
	valVals []float32
}

// kern is the kernel parameter block: launches read their inputs from one
// shared struct so the cached closures never capture per-call state.
type kern struct {
	data   []float32
	qv     []int64
	codes  []uint16
	out    []float32
	g      Grid
	eb     float64
	twoEB  float64
	freq   []int64
	nData  int
	zrow   []int64 // all-zero row of length g.Nx (halo substitute)
	chunks []escChunk
	mu     sync.Mutex
}

// lscratch holds cross-op scratch: the fused histogram, the zero halo row,
// and the kernel closures with their parameter block. Kernels read their
// inputs from k, so one closure allocation (per context lifetime) serves
// every subsequent launch.
type lscratch struct {
	freq []int64
	zero []int64

	k           kern
	prequantJob func(lo, hi int)
	deltaJob    func(lo, hi int)
	xScanJob    func(int)
	yScanJob    func(int)
	zScanJob    func(lo, hi int)
}

func scratchFor(ctx *arena.Ctx) *lscratch {
	if s, ok := ctx.Aux(auxKey).(*lscratch); ok {
		return s
	}
	s := &lscratch{}
	ctx.SetAux(auxKey, s)
	return s
}

// Grid mirrors interp.Grid for package independence.
type Grid struct {
	Nz, Ny, Nx int
}

// NewGrid normalizes dims (slowest first) to three dimensions.
func NewGrid(dims []int) Grid {
	switch len(dims) {
	case 0:
		return Grid{1, 1, 0}
	case 1:
		return Grid{1, 1, dims[0]}
	case 2:
		return Grid{1, dims[0], dims[1]}
	case 3:
		return Grid{dims[0], dims[1], dims[2]}
	default:
		nz := 1
		for _, d := range dims[:len(dims)-2] {
			nz *= d
		}
		return Grid{nz, dims[len(dims)-2], dims[len(dims)-1]}
	}
}

// Len returns the number of points.
func (g Grid) Len() int { return g.Nz * g.Ny * g.Nx }

// Result is the Lorenzo decomposition output.
type Result struct {
	// Codes holds delta+Radius+1 for in-range deltas, 0 for escapes.
	Codes []uint16
	// Escapes holds the exact deltas of code-0 points, in flat order.
	Escapes []int64
	// ValOutliers holds points whose lattice reconstruction cannot meet the
	// bound (extreme magnitudes); their original values win at decompression.
	ValOutliers quant.Outliers
	// Freq is the histogram of Codes over [0, Alphabet), accumulated during
	// the quantization sweep (context scratch when a Ctx was supplied).
	Freq []int64
}

// prequantRange is the lattice-rounding kernel body over [lo, hi): 8-wide
// groups over pinned views, scalar tail. The division by 2ε is kept (not
// strength-reduced to a multiply) so results stay bit-identical to the
// scalar reference. ±Inf clamp to ±latticeCap and NaN takes the stand-in
// 0 (the Go spec leaves int64(NaN) to the implementation); the
// value-outlier check then stores every non-finite input exactly.
//
//cuszhi:hotpath
func (k *kern) prequantRange(lo, hi int) {
	data := k.data[lo:hi:hi]
	qv := k.qv[lo:hi:hi]
	twoEB := k.twoEB
	n := hi - lo
	i := 0
	for ; i+lanes <= n; i += lanes {
		d := data[i : i+lanes : i+lanes]
		q := qv[i : i+lanes : i+lanes]
		for l := 0; l < lanes; l++ {
			r := math.Round(float64(d[l]) / twoEB)
			switch {
			case r > float64(latticeCap):
				q[l] = latticeCap
			case r < -float64(latticeCap):
				q[l] = -latticeCap
			case math.IsNaN(r):
				q[l] = 0
			default:
				q[l] = int64(r)
			}
		}
	}
	for ; i < n; i++ {
		r := math.Round(float64(data[i]) / twoEB)
		switch {
		case r > float64(latticeCap):
			qv[i] = latticeCap
		case r < -float64(latticeCap):
			qv[i] = -latticeCap
		case math.IsNaN(r):
			qv[i] = 0
		default:
			qv[i] = int64(r)
		}
	}
}

// PrequantizeCtx converts data to its integer lattice (round(v/2ε),
// clamped), drawing the lattice buffer from ctx (the result is context
// scratch when ctx is non-nil).
func PrequantizeCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, twoEB float64) []int64 {
	s := scratchFor(ctx)
	qv := ctx.I64(len(data))
	s.k.data, s.k.qv, s.k.twoEB, s.k.nData = data, qv, twoEB, len(data)
	if s.prequantJob == nil {
		s.prequantJob = s.k.prequantRange
	}
	dev.LaunchBatched(len(data), 1<<chunkShift, lanes, s.prequantJob)
	s.k.data = nil // drop the caller's field so a pooled ctx never pins it
	return qv
}

// deltaRange is the batched quantization sweep over the flat range
// [lo, hi): it walks whole grid rows and hands each row segment to the
// wide row kernel. Row segments are visited in ascending flat order, so
// the per-chunk escape and outlier lists stay in flat order — the
// serialization invariant the container format depends on.
func (k *kern) deltaRange(lo, hi int, ec *escChunk, hist *[Alphabet]uint32) {
	g := k.g
	nyx := g.Ny * g.Nx
	for i := lo; i < hi; {
		x := i % g.Nx
		rowEnd := i - x + g.Nx
		if rowEnd > hi {
			rowEnd = hi
		}
		z := i / nyx
		y := (i / g.Nx) % g.Ny
		k.deltaRowWide(z, y, x, rowEnd-(i-x), ec, hist)
		i = rowEnd
	}
}

// deltaRowWide runs the Lorenzo predict/quantize body over columns
// [x0, x1) of row (z, y): 8-wide groups of predictions from pinned
// neighbor-row views, then per-lane quantize/escape/outlier handling, with
// a scalar tail. Missing neighbor rows (boundary halos) substitute the
// shared all-zero row, so one kernel covers the whole grid; only the x == 0
// column needs its own (scalar) case.
func (k *kern) deltaRowWide(z, y, x0, x1 int, ec *escChunk, hist *[Alphabet]uint32) {
	g := k.g
	nyx := g.Ny * g.Nx
	base := z*nyx + y*g.Nx
	qv := k.qv
	cur := qv[base : base+g.Nx : base+g.Nx]
	rowY, rowZ, rowZY := k.zrow, k.zrow, k.zrow
	if y > 0 {
		rowY = qv[base-g.Nx : base : base]
	}
	if z > 0 {
		rowZ = qv[base-nyx : base-nyx+g.Nx : base-nyx+g.Nx]
		if y > 0 {
			rowZY = qv[base-nyx-g.Nx : base-nyx : base-nyx]
		}
	}
	data := k.data
	codes := k.codes
	x := x0
	if x == 0 {
		// First column: every x-1 neighbor is outside the grid.
		k.emit(0, base, cur[0], rowY[0]+rowZ[0]-rowZY[0], data, codes, ec, hist)
		x = 1
	}
	for ; x+lanes <= x1; x += lanes {
		c8 := cur[x : x+lanes : x+lanes]
		cm := cur[x-1 : x-1+lanes : x-1+lanes]
		ry := rowY[x : x+lanes : x+lanes]
		rym := rowY[x-1 : x-1+lanes : x-1+lanes]
		rz := rowZ[x : x+lanes : x+lanes]
		rzm := rowZ[x-1 : x-1+lanes : x-1+lanes]
		rzy := rowZY[x : x+lanes : x+lanes]
		rzym := rowZY[x-1 : x-1+lanes : x-1+lanes]
		var pred [lanes]int64
		for l := range pred {
			pred[l] = cm[l] + ry[l] + rz[l] - rym[l] - rzm[l] - rzy[l] + rzym[l]
		}
		d8 := data[base+x : base+x+lanes : base+x+lanes]
		k8 := codes[base+x : base+x+lanes : base+x+lanes]
		for l := 0; l < lanes; l++ {
			q := c8[l]
			delta := q - pred[l]
			if delta >= -Radius && delta < Radius {
				code := uint16(delta+Radius) + 1
				k8[l] = code
				hist[code]++
			} else {
				k8[l] = 0
				hist[0]++
				ec.deltas = append(ec.deltas, delta)
			}
			recon := float32(float64(q) * k.twoEB)
			// Negated so that a NaN error (a NaN or infinite input) fails
			// the bound too.
			if !(math.Abs(float64(d8[l])-float64(recon)) <= k.eb) {
				ec.valPos = append(ec.valPos, base+x+l)
				ec.valVals = append(ec.valVals, d8[l])
			}
		}
	}
	for ; x < x1; x++ {
		pred := cur[x-1] + rowY[x] + rowZ[x] - rowY[x-1] - rowZ[x-1] - rowZY[x] + rowZY[x-1]
		k.emit(x, base, cur[x], pred, data, codes, ec, hist)
	}
}

// emit quantizes one point: code or escape, histogram, and the
// reconstruction-bound outlier check. Shared by the halo column and the
// row tails of the wide kernel.
func (k *kern) emit(x, base int, q, pred int64, data []float32, codes []uint16, ec *escChunk, hist *[Alphabet]uint32) {
	i := base + x
	delta := q - pred
	if delta >= -Radius && delta < Radius {
		code := uint16(delta+Radius) + 1
		codes[i] = code
		hist[code]++
	} else {
		codes[i] = 0
		hist[0]++
		ec.deltas = append(ec.deltas, delta)
	}
	recon := float32(float64(q) * k.twoEB)
	if !(math.Abs(float64(data[i])-float64(recon)) <= k.eb) {
		ec.valPos = append(ec.valPos, i)
		ec.valVals = append(ec.valVals, data[i])
	}
}

// CompressCtx runs the dual-quant Lorenzo decomposition. eb is the
// absolute error bound. With a non-nil ctx the code, lattice and
// side-channel buffers (and Result.Freq) are context scratch, valid until
// ctx.Reset.
func CompressCtx(ctx *arena.Ctx, dev *gpusim.Device, data []float32, g Grid, eb float64) (*Result, error) {
	if g.Len() != len(data) {
		return nil, fmt.Errorf("lorenzo: grid %dx%dx%d does not match %d values", g.Nz, g.Ny, g.Nx, len(data))
	}
	if eb <= 0 {
		return nil, fmt.Errorf("lorenzo: error bound %v must be positive", eb)
	}
	twoEB := 2 * eb
	qv := PrequantizeCtx(ctx, dev, data, twoEB)
	s := scratchFor(ctx)
	if cap(s.freq) < Alphabet {
		s.freq = make([]int64, Alphabet)
	}
	freq := s.freq[:Alphabet]
	clear(freq)
	if cap(s.zero) < g.Nx {
		s.zero = make([]int64, g.Nx)
	}
	res := &Result{
		Codes: ctx.U16(len(data)),
		Freq:  freq,
	}
	// Pass 1 (parallel): per-row Lorenzo deltas fused with the code
	// histogram; escapes and value outliers collect per chunk into
	// persistent batch slots, in flat order.
	nChunks := (len(data) + (1 << chunkShift) - 1) >> chunkShift
	chunks := arena.Slots[escChunk](ctx, chunksKey, nChunks)
	for i := range chunks {
		chunks[i].deltas = chunks[i].deltas[:0]
		chunks[i].valPos = chunks[i].valPos[:0]
		chunks[i].valVals = chunks[i].valVals[:0]
	}
	s.k.data, s.k.qv, s.k.codes, s.k.g = data, qv, res.Codes, g
	s.k.eb, s.k.twoEB, s.k.freq, s.k.nData = eb, twoEB, freq, len(data)
	s.k.zrow, s.k.chunks = s.zero[:g.Nx:g.Nx], chunks
	if s.deltaJob == nil {
		k := &s.k
		s.deltaJob = func(lo, hi int) {
			ec := &k.chunks[lo>>chunkShift]
			var hist [Alphabet]uint32
			k.deltaRange(lo, hi, ec, &hist)
			k.mu.Lock()
			for sym, n := range hist {
				if n != 0 {
					k.freq[sym] += int64(n)
				}
			}
			k.mu.Unlock()
		}
	}
	dev.LaunchBatched(len(data), 1<<chunkShift, lanes, s.deltaJob)
	nEsc, nOut := 0, 0
	for i := range chunks {
		nEsc += len(chunks[i].deltas)
		nOut += len(chunks[i].valPos)
	}
	res.Escapes = ctx.I64(nEsc)[:0]
	res.ValOutliers.Pos = ctx.Ints(nOut)[:0]
	res.ValOutliers.Val = ctx.F32(nOut)[:0]
	for i := range chunks {
		ec := &chunks[i]
		res.Escapes = append(res.Escapes, ec.deltas...)
		res.ValOutliers.Pos = append(res.ValOutliers.Pos, ec.valPos...)
		res.ValOutliers.Val = append(res.ValOutliers.Val, ec.valVals...)
	}
	s.k.data = nil // drop the caller's field so a pooled ctx never pins it
	return res, nil
}

// rebuildDeltas turns codes back into deltas in qv, consuming the escape
// list in flat order. It resolves 8 codes per step through a branchless
// validity test: for valid codes c ∈ [1, Alphabet) the values
// c-1 stay below Alphabet-1, while c == 0 wraps to 0xFFFF — so one OR over
// the group detects escapes and corrupt codes together, and clean groups
// (the overwhelming majority) decode without per-lane branching.
func rebuildDeltas(qv []int64, codes []uint16, escapes []int64) (int, error) {
	n := len(codes)
	qv = qv[:n:n]
	codes = codes[:n:n]
	esc := 0
	i := 0
	for ; i+lanes <= n; i += lanes {
		c := codes[i : i+lanes : i+lanes]
		bad := (c[0] - 1) | (c[1] - 1) | (c[2] - 1) | (c[3] - 1) |
			(c[4] - 1) | (c[5] - 1) | (c[6] - 1) | (c[7] - 1)
		if bad < Alphabet-1 {
			q := qv[i : i+lanes : i+lanes]
			for l := 0; l < lanes; l++ {
				q[l] = int64(c[l]) - 1 - Radius
			}
			continue
		}
		for l := 0; l < lanes; l++ {
			cl := c[l]
			if cl == 0 {
				if esc >= len(escapes) {
					return 0, fmt.Errorf("lorenzo: escape list exhausted at %d", i+l)
				}
				qv[i+l] = escapes[esc]
				esc++
				continue
			}
			if int(cl) >= Alphabet {
				return 0, fmt.Errorf("lorenzo: code %d out of range", cl)
			}
			qv[i+l] = int64(cl) - 1 - Radius
		}
	}
	for ; i < n; i++ {
		c := codes[i]
		if c == 0 {
			if esc >= len(escapes) {
				return 0, fmt.Errorf("lorenzo: escape list exhausted at %d", i)
			}
			qv[i] = escapes[esc]
			esc++
			continue
		}
		if int(c) >= Alphabet {
			return 0, fmt.Errorf("lorenzo: code %d out of range", c)
		}
		qv[i] = int64(c) - 1 - Radius
	}
	return esc, nil
}

// addVec adds src into dst element-wise, 8-wide unrolled over pinned
// equal-length views — the inner body of the y and z prefix-sum scans.
//
//cuszhi:hotpath
func addVec(dst, src []int64) {
	n := len(dst)
	src = src[:n:n]
	i := 0
	for ; i+lanes <= n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// scaleVec converts lattice coordinates back to values, 8-wide unrolled.
//
//cuszhi:hotpath
func scaleVec(dst []float32, src []int64, twoEB float64) {
	n := len(dst)
	src = src[:n:n]
	i := 0
	for ; i+lanes <= n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		for l := 0; l < lanes; l++ {
			d[l] = float32(float64(s[l]) * twoEB)
		}
	}
	for ; i < n; i++ {
		dst[i] = float32(float64(src[i]) * twoEB)
	}
}

// DecompressCtx reconstructs the field. With a non-nil ctx the returned
// field is context scratch, valid until the next ctx.Reset.
func DecompressCtx(ctx *arena.Ctx, dev *gpusim.Device, res *Result, g Grid, eb float64) ([]float32, error) {
	if len(res.Codes) != g.Len() {
		return nil, fmt.Errorf("lorenzo: %d codes for grid of %d points", len(res.Codes), g.Len())
	}
	if eb <= 0 {
		return nil, fmt.Errorf("lorenzo: error bound %v must be positive", eb)
	}
	twoEB := 2 * eb
	n := g.Len()
	s := scratchFor(ctx)
	qv := ctx.I64(n)
	// Rebuild deltas (sequential escape consumption, parallel the rest).
	esc, err := rebuildDeltas(qv, res.Codes, res.Escapes)
	if err != nil {
		return nil, err
	}
	if esc != len(res.Escapes) {
		return nil, fmt.Errorf("lorenzo: %d unused escapes", len(res.Escapes)-esc)
	}
	// 3-D inclusive prefix sum: x-scan, y-scan, then a z-scan fused with
	// the lattice-to-value conversion (a column chunk that finished its
	// last plane holds final lattice values, so one kernel does both).
	out := ctx.F32(n)
	s.k.qv, s.k.out, s.k.g, s.k.twoEB = qv, out, g, twoEB
	if s.xScanJob == nil {
		k := &s.k
		s.xScanJob = func(r int) {
			row := k.qv[r*k.g.Nx : (r+1)*k.g.Nx]
			var acc int64
			for x := range row {
				acc += row[x]
				row[x] = acc
			}
		}
		s.yScanJob = func(z int) {
			qv := k.qv
			g := k.g
			base := z * g.Ny * g.Nx
			for y := 1; y < g.Ny; y++ {
				row := base + y*g.Nx
				prev := row - g.Nx
				addVec(qv[row:row+g.Nx], qv[prev:prev+g.Nx])
			}
		}
		s.zScanJob = func(lo, hi int) {
			qv := k.qv
			g := k.g
			nyx := g.Ny * g.Nx
			for z := 1; z < g.Nz; z++ {
				base := z * nyx
				addVec(qv[base+lo:base+hi], qv[base-nyx+lo:base-nyx+hi])
			}
			for z := 0; z < g.Nz; z++ {
				base := z * nyx
				scaleVec(k.out[base+lo:base+hi], qv[base+lo:base+hi], k.twoEB)
			}
		}
	}
	nyx := g.Ny * g.Nx
	dev.Launch(g.Nz*g.Ny, s.xScanJob)
	dev.Launch(g.Nz, s.yScanJob)
	dev.LaunchBatched(nyx, 1<<14, lanes, s.zScanJob)
	for k, p := range res.ValOutliers.Pos {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("lorenzo: outlier position %d out of range", p)
		}
		out[p] = res.ValOutliers.Val[k]
	}
	return out, nil
}
