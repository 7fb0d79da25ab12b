package interp

import (
	"math"
	"slices"

	"repro/internal/quant"
)

// This file contains the per-block interpolation engine shared by
// compression, decompression and auto-tuning. A block covers the inclusive
// coordinate ranges [lo, hi] per dimension (neighbouring blocks share their
// boundary faces, like the CUDA shared-memory chunks of Fig. 1/3), keeps a
// local reconstruction buffer and a code tile laid out like it, and walks
// the levels coarse-to-fine, one stride-row at a time. Along a row only
// the x direction's neighbour availability varies, so the row interior
// shares one term set, and the at most three halo points at the x ends
// take term sets of their own, built with the row's and cached with them.
//
// Compression and decompression make one fused pass over each group of
// rows that share a term set: each point's prediction is evaluated
// straight from the buffer, then compression quantizes it against the
// field value and stores its reconstruction and code in the buffer and the
// tile, and decompression, which first copied the block's codes into the
// tile, stores its dequantized value in the buffer. Either way the owned
// rows leave the block once it is done (codes with their histogram and
// outliers, or reconstructions), the way cuSZ-Hi's kernels (§5.1) work on
// a block in shared memory before storing it. Auto-tuning walks the same
// passes row by row over a buffer of original values and sums the
// prediction errors.

// dimClass constrains one coordinate of a phase's point set.
type dimClass uint8

const (
	even2 dimClass = iota // coord ≡ 0 (mod 2s): known from previous level
	odd                   // coord ≡ s (mod 2s): predicted in this phase
	anyS                  // coord ≡ 0 (mod s): filled earlier in this level
)

// phase is one parallel interpolation step within a level: the classes
// constrain the point lattice, dims lists the interpolation directions
// (the odd dims).
type phase struct {
	class [3]dimClass // z, y, x
	dims  []int       // 0=z, 1=y, 2=x
}

var (
	phasesSeqXYZ = []phase{
		{class: [3]dimClass{even2, even2, odd}, dims: []int{2}},
		{class: [3]dimClass{even2, odd, anyS}, dims: []int{1}},
		{class: [3]dimClass{odd, anyS, anyS}, dims: []int{0}},
	}
	phasesSeqZYX = []phase{
		{class: [3]dimClass{odd, even2, even2}, dims: []int{0}},
		{class: [3]dimClass{anyS, odd, even2}, dims: []int{1}},
		{class: [3]dimClass{anyS, anyS, odd}, dims: []int{2}},
	}
	phasesMD = []phase{
		// Edge centers: exactly one odd dim (Fig. 4b left).
		{class: [3]dimClass{even2, even2, odd}, dims: []int{2}},
		{class: [3]dimClass{even2, odd, even2}, dims: []int{1}},
		{class: [3]dimClass{odd, even2, even2}, dims: []int{0}},
		// Face centers: two odd dims (Fig. 4b middle).
		{class: [3]dimClass{even2, odd, odd}, dims: []int{1, 2}},
		{class: [3]dimClass{odd, even2, odd}, dims: []int{0, 2}},
		{class: [3]dimClass{odd, odd, even2}, dims: []int{0, 1}},
		// Body centers: all odd (Fig. 4b right).
		{class: [3]dimClass{odd, odd, odd}, dims: []int{0, 1, 2}},
	}
)

func phasesFor(s Scheme) []phase {
	switch s {
	case Seq1DXYZ:
		return phasesSeqXYZ
	case Seq1DZYX:
		return phasesSeqZYX
	default:
		return phasesMD
	}
}

// block is the per-block working state.
type block struct {
	g       Grid
	cfg     *Config
	lo, hi  [3]int // inclusive global bounds (z, y, x)
	ohi     [3]int // exclusive upper owner bounds
	ext     [3]int // local extents (hi-lo+1)
	buf     []float32
	tile    []uint8   // the block's quant codes, laid out like buf
	anchors []float32 // dense global anchor grid
	az      [3]int    // anchor grid dims

	// row holds the terms of the current row's interior; halo[h] those of
	// its halo point haloAt[h] (a row index), for the first nHalo entries.
	row    termSet
	halo   [3]termSet
	haloAt [3]int
	nHalo  int

	// Compression and tuning state: the field, and the bound (compression)
	// or the summed absolute prediction error (tuning).
	data    []float32
	twoEB   float64
	tuneErr float64

	// Decompression state (see decode): the code-to-offset table, which
	// tuning sets too (see AutoTune), the outlier list, and whether an
	// outlier code had no value in it.
	deq  *[256]float64
	outl *quant.Outliers
	miss bool
}

// blockGrid computes the number of blocks per dimension.
func blockGrid(g Grid, cfg *Config) (nbz, nby, nbx int) {
	f := func(n, b int) int {
		if n <= 1 {
			return 1
		}
		return (n - 2 + b) / b // ceil((n-1)/b)
	}
	return f(g.Nz, cfg.BlockZ), f(g.Ny, cfg.BlockY), f(g.Nx, cfg.BlockX)
}

// initBlock positions the block with grid index (bz, by, bx).
func (b *block) initBlock(g Grid, cfg *Config, bz, by, bx int) {
	b.g = g
	b.cfg = cfg
	nbz, nby, nbx := blockGrid(g, cfg)
	dims := [3]int{g.Nz, g.Ny, g.Nx}
	bsz := [3]int{cfg.BlockZ, cfg.BlockY, cfg.BlockX}
	idx := [3]int{bz, by, bx}
	nb := [3]int{nbz, nby, nbx}
	for d := 0; d < 3; d++ {
		b.lo[d] = idx[d] * bsz[d]
		b.hi[d] = b.lo[d] + bsz[d]
		if b.hi[d] > dims[d]-1 {
			b.hi[d] = dims[d] - 1
		}
		if idx[d] == nb[d]-1 {
			b.ohi[d] = dims[d]
		} else {
			b.ohi[d] = b.lo[d] + bsz[d]
		}
		b.ext[d] = b.hi[d] - b.lo[d] + 1
	}
	need := b.ext[0] * b.ext[1] * b.ext[2]
	if cap(b.buf) < need {
		b.buf = make([]float32, need)
		b.tile = make([]uint8, need)
	}
	b.buf, b.tile = b.buf[:need], b.tile[:need]
}

// local returns the index into buf for global coords.
func (b *block) local(z, y, x int) int {
	return ((z-b.lo[0])*b.ext[1]+(y-b.lo[1]))*b.ext[2] + (x - b.lo[2])
}

// anchorAt reads the dense anchor grid at global coords (multiples of the
// anchor stride).
func (b *block) anchorAt(z, y, x int) float32 {
	a := b.cfg.AnchorStride
	return b.anchors[((z/a)*b.az[1]+(y/a))*b.az[2]+(x/a)]
}

// loadAnchors copies the block's anchor points into buf and seeds their
// tile entries with ZeroCode, the code every anchor carries.
func (b *block) loadAnchors() {
	a := b.cfg.AnchorStride
	for z := b.lo[0]; z <= b.hi[0]; z += a {
		for y := b.lo[1]; y <= b.hi[1]; y += a {
			for x := b.lo[2]; x <= b.hi[2]; x += a {
				l := b.local(z, y, x)
				b.buf[l] = b.anchorAt(z, y, x)
				b.tile[l] = quant.ZeroCode
			}
		}
	}
}

// strides returns buf's element stride along each dimension.
func (b *block) strides() [3]int {
	return [3]int{b.ext[1] * b.ext[2], b.ext[2], 1}
}

// stencil names one direction's interpolation formula: the case interp1
// picks from which of the -3s, -s, +s, +3s neighbours (a, p, q, d) exist.
type stencil uint8

const (
	stCubic   stencil = iota // (-a + 9p + 9q - d) / 16, order 3
	stQuadA                  // (-a + 6p + 3q) / 8, order 2
	stQuadD                  // (3p + 6q - d) / 8, order 2
	stLinear                 // (p + q) / 2, order 1
	stExtrapP                // (3p - a) / 2, order 0
	stCopyP                  // p, order 0
	stExtrapQ                // (3q - d) / 2, order 0
	stCopyQ                  // q, order 0
	stNone                   // 0, order 0
)

// stencilFor mirrors the case analysis of interp1, the per-point reference
// interpolation in the equivalence tests: it returns the formula interp1
// evaluates for these availability flags, and its spline order.
func stencilFor(ha, hp, hq, hd bool, spline Spline) (stencil, int) {
	switch {
	case hp && hq:
		if spline == Cubic {
			switch {
			case ha && hd:
				return stCubic, 3
			case ha:
				return stQuadA, 2
			case hd:
				return stQuadD, 2
			}
		}
		return stLinear, 1
	case hp:
		if ha {
			return stExtrapP, 0
		}
		return stCopyP, 0
	case hq:
		if hd {
			return stExtrapQ, 0
		}
		return stCopyQ, 0
	}
	return stNone, 0
}

// rowTerm is one direction's share of a stride-row prediction: the buffer
// offset of its ±s neighbours and its formula.
type rowTerm struct {
	off  int
	kind stencil
}

// termSet is a prediction's contributing directions, in phase order, and
// its accumulator's start value.
type termSet struct {
	init float32
	n    int
	t    [3]rowTerm
}

func (ts *termSet) terms() []rowTerm { return ts.t[:ts.n] }

// negZero starts predict's general-path accumulation: -0 + v == v for
// every v, so adding the first term to it is the same as assigning it.
var negZero = math.Float32frombits(1 << 31)

// rowTerms sets ts to the directions that predict averages at the point
// (z, y, x): each direction's formula follows from its neighbour
// availability, and only the directions of the highest order contribute,
// in phase order. The start value is +0 when every direction is full
// cubic (predict's interior fast path), else -0. Along a row only the x
// direction's availability varies, so the terms built for one point of
// the row interior [k0, k1) hold for all of it; each halo point gets its
// own.
func (b *block) rowTerms(ts *termSet, z, y, x, s int, dims []int, spline Spline) {
	st := b.strides()
	gc := [3]int{z, y, x}
	var kinds [3]stencil
	var orders [3]int
	best := -1
	allCubic := true
	for k, d := range dims {
		c := gc[d]
		ha, hp := c-3*s >= b.lo[d], c-s >= b.lo[d]
		hq, hd := c+s <= b.hi[d], c+3*s <= b.hi[d]
		kinds[k], orders[k] = stencilFor(ha, hp, hq, hd, spline)
		best = max(best, orders[k])
		allCubic = allCubic && kinds[k] == stCubic
	}
	ts.n = 0
	for k, d := range dims {
		if orders[k] == best {
			ts.t[ts.n] = rowTerm{off: s * st[d], kind: kinds[k]}
			ts.n++
		}
	}
	ts.init = negZero
	if allCubic {
		ts.init = 0
	}
}

// walkMode selects what runLevel does with each group of rows.
type walkMode uint8

const (
	// compressWalk quantizes each point against the field value, storing
	// its reconstruction in buf and its code in the tile.
	compressWalk walkMode = iota
	// decompressWalk dequantizes each point's tile code into buf.
	decompressWalk
	// tuneWalk adds each point's absolute prediction error to tuneErr and
	// leaves buf, which holds the original values, as it is.
	tuneWalk
)

// runLevel walks one interpolation level (stride s of the new points) with
// the given level config in deterministic phase order. No point of a phase
// is a neighbour of another point of the same phase, so a point's
// reconstruction may be stored before the rest of its phase is predicted,
// and the rows that share terms go through one fused pass together: a
// phase without a y (or z) direction takes one pass per z-plane (or y)
// rather than one per row. Tuning keeps the rows in z, y order, as the
// reference walk sums its errors, so there a phase with a y but no z
// direction takes one pass per row.
func (b *block) runLevel(s int, lc LevelConfig, mode walkMode) {
	st := b.strides()
	reach := s // how far a direction's neighbours lie from the point
	if lc.Spline == Cubic {
		reach = 3 * s
	}
	for _, ph := range phasesFor(lc.Scheme) {
		var start, step [3]int
		skip := false
		for d := 0; d < 3; d++ {
			switch ph.class[d] {
			case odd:
				start[d] = b.lo[d] + s
				step[d] = 2 * s
			case even2:
				start[d] = b.lo[d]
				step[d] = 2 * s
			default: // anyS
				start[d] = b.lo[d]
				step[d] = s
			}
			if start[d] > b.hi[d] {
				skip = true
			}
		}
		if skip {
			continue
		}
		x0, xstep := start[2], step[2]
		n := (b.hi[2]-x0)/xstep + 1
		// Points [k0, k1) of each row share the row's terms: along them the
		// x direction, when interpolated, has all its neighbours inside the
		// block, so every direction's formula is constant. The halo points
		// outside lie within reach of a block x end: k0 ≤ 1 and n−k1 ≤ 2
		// (x0 = lo+s and xstep = 2s), so at most three.
		k0, k1 := 0, n
		if slices.Contains(ph.dims, 2) {
			k0 = min(n, (b.lo[2]+reach-x0+xstep-1)/xstep)
			k1 = 0
			if last := b.hi[2] - reach; last >= x0 {
				k1 = (last-x0)/xstep + 1
			}
			k1 = max(k1, k0)
		}
		b.nHalo = 0
		for i := 0; i < n; i++ {
			if i < k0 || i >= k1 {
				b.haloAt[b.nHalo] = i
				b.nHalo++
			}
		}
		// A row's terms depend on z only through a z direction and on y only
		// through a y direction, so the rows of a group share them, halo
		// included.
		zDep, yDep := slices.Contains(ph.dims, 0), slices.Contains(ph.dims, 1)
		terms := func(z, y int) {
			if k0 < k1 {
				b.rowTerms(&b.row, z, y, x0+k0*xstep, s, ph.dims, lc.Spline)
			}
			for h, i := range b.haloAt[:b.nHalo] {
				b.rowTerms(&b.halo[h], z, y, x0+i*xstep, s, ph.dims, lc.Spline)
			}
		}
		// With no y direction every row of a z-plane is one group, with no
		// z direction every row at one y, else each row is its own.
		nz, ny := (b.hi[0]-start[0])/step[0]+1, (b.hi[1]-start[1])/step[1]+1
		zrow, yrow := [2]int{step[0] * st[0], step[0] * b.g.Ny * b.g.Nx}, [2]int{step[1] * st[1], step[1] * b.g.Nx}
		switch {
		case !yDep:
			for z := start[0]; z <= b.hi[0]; z += step[0] {
				terms(z, start[1])
				b.rows(mode, z, start[1], x0, ny, yrow, k0, k1, xstep)
			}
		case !zDep && mode != tuneWalk:
			for y := start[1]; y <= b.hi[1]; y += step[1] {
				terms(start[0], y)
				b.rows(mode, start[0], y, x0, nz, zrow, k0, k1, xstep)
			}
		default:
			for z := start[0]; z <= b.hi[0]; z += step[0] {
				for y := start[1]; y <= b.hi[1]; y += step[1] {
					terms(z, y)
					b.rows(mode, z, y, x0, 1, yrow, k0, k1, xstep)
				}
			}
		}
	}
}

// rows runs m rows that share the current terms through mode's pass: row
// r starts at global coords (z, y, x0) moved r times by row, a (buffer,
// field) index step, and holds points xstep apart, of which [k0, k1) are
// the interior and the rest the halo.
func (b *block) rows(mode walkMode, z, y, x0, m int, row [2]int, k0, k1, xstep int) {
	switch mode {
	case compressWalk:
		b.compressRows(z, y, x0, m, row, k0, k1, xstep)
	case decompressWalk:
		b.decompressRows(z, y, x0, m, row, k0, k1, xstep)
	default:
		b.tuneRows(z, y, x0, m, row, k0, k1, xstep)
	}
}

// compressRows quantizes m rows that share the current terms: row r
// starts at global coords (z, y, x0) moved r times by row, a (buffer,
// field) index step, and holds points xstep apart. The interior [k0, k1)
// and each halo point run as one quantLattice pass over all m rows.
func (b *block) compressRows(z, y, x0, m int, row [2]int, k0, k1, xstep int) {
	l0, d0 := b.local(z, y, x0), b.g.flat(z, y, x0)
	if k0 < k1 {
		b.quantLattice(l0+k0*xstep, d0+k0*xstep, m, row, k1-k0, xstep, &b.row)
	}
	for h, i := range b.haloAt[:b.nHalo] {
		b.quantLattice(l0+i*xstep, d0+i*xstep, m, row, 1, xstep, &b.halo[h])
	}
}

// quantLattice is compression's fused pass over m rows of n points that
// share the term set ts: point i of row r sits at buffer index
// l0+r*row[0]+i*xstep and field index d0+r*row[1]+i*xstep. Its prediction
// starts at ts.init, adds each term's formula, evaluated straight from
// buf, and is divided by the term count when there are several: the float
// op sequence of predict, the per-point reference. quant.TryQuantize
// quantizes it against the field value, and the reconstruction goes to
// buf and the code to the tile.
//
//cuszhi:hotpath
func (b *block) quantLattice(l0, d0, m int, row [2]int, n, xstep int, ts *termSet) {
	buf, tile, data := b.buf, b.tile, b.data
	twoEB, half := b.twoEB, b.twoEB/2
	init, terms, nf := ts.init, ts.terms(), float32(ts.n)
	span := n * xstep
	for ; m > 0; m, l0, d0 = m-1, l0+row[0], d0+row[1] {
		for j, d, end := l0, d0, d0+span; d < end; j, d = j+xstep, d+xstep {
			p := init
			for _, t := range terms {
				o1, o3 := t.off, 3*t.off
				switch t.kind {
				case stCubic:
					p += (-buf[j-o3] + 9*buf[j-o1] + 9*buf[j+o1] - buf[j+o3]) / 16
				case stQuadA:
					p += (-buf[j-o3] + 6*buf[j-o1] + 3*buf[j+o1]) / 8
				case stQuadD:
					p += (3*buf[j-o1] + 6*buf[j+o1] - buf[j+o3]) / 8
				case stLinear:
					p += (buf[j-o1] + buf[j+o1]) / 2
				case stExtrapP:
					p += (3*buf[j-o1] - buf[j-o3]) / 2
				case stCopyP:
					p += buf[j-o1]
				case stExtrapQ:
					p += (3*buf[j+o1] - buf[j+o3]) / 2
				case stCopyQ:
					p += buf[j+o1]
				default: // stNone
					p += 0
				}
			}
			if len(terms) > 1 {
				p /= nf
			}
			v := data[d]
			if c, r, ok := quant.TryQuantize(v, float64(p), twoEB, half); ok {
				buf[j], tile[j] = r, c
				continue
			}
			buf[j], tile[j] = v, quant.OutlierCode
		}
	}
}

// decompressRows is compressRows' inverse over the same rows: when one of
// dequantRows' passes met an outlier code, fixOutliers gives the rows'
// outlier-coded points their values. Fixing them after the whole group is
// exact, since no point of the group is a neighbour of another.
func (b *block) decompressRows(z, y, x0, m int, row [2]int, k0, k1, xstep int) {
	l0 := b.local(z, y, x0)
	if !b.dequantRows(l0, m, row[0], k0, k1, xstep) {
		return
	}
	n, d0 := k1-k0+b.nHalo, b.g.flat(z, y, x0)
	for ; m > 0; m, l0, d0 = m-1, l0+row[0], d0+row[1] {
		b.fixOutliers(l0, d0, n, xstep)
	}
}

// dequantRows runs the interior [k0, k1) and each halo point of m rows
// that share the current terms as one dequantLattice pass over all m rows,
// where row r starts at buffer index l0+r*row, and reports whether a pass
// met an outlier code.
func (b *block) dequantRows(l0, m, row, k0, k1, xstep int) bool {
	outlier := false
	if k0 < k1 {
		outlier = b.dequantLattice(l0+k0*xstep, m, row, k1-k0, xstep, &b.row)
	}
	for h, i := range b.haloAt[:b.nHalo] {
		if b.dequantLattice(l0+i*xstep, m, row, 1, xstep, &b.halo[h]) {
			outlier = true
		}
	}
	return outlier
}

// dequantLattice is decompression's fused pass over m rows of n points
// that share the term set ts: point i of row r sits at buffer index
// l0+r*row+i*xstep. Its prediction is quantLattice's, with the same float
// op sequence, and float32(p + deq[code]) — quant.Dequantize's float op
// sequence, so the same bits — goes straight to buf there. Outlier codes
// are rare, so it only reports whether it met one; fixOutliers then
// overwrites those points. A set of one cubic, quadratic or linear term,
// the common case (every seq-zyx and seq-xyz level, and MD's edge
// centres), takes a loop of its own with the formula chosen outside it;
// other sets take the per-point formula switch.
//
//cuszhi:hotpath
func (b *block) dequantLattice(l0, m, row, n, xstep int, ts *termSet) bool {
	buf, tile, deq := b.buf, b.tile, b.deq
	init, span := ts.init, n*xstep
	o1 := ts.t[0].off
	o3 := 3 * o1
	outlier := false
	switch {
	case ts.n == 1 && ts.t[0].kind == stCubic:
		for ; m > 0; m, l0 = m-1, l0+row {
			for j, end := l0, l0+span; j < end; j += xstep {
				p := init + (-buf[j-o3]+9*buf[j-o1]+9*buf[j+o1]-buf[j+o3])/16
				c := tile[j]
				if c == quant.OutlierCode {
					outlier = true
				}
				buf[j] = float32(float64(p) + deq[c])
			}
		}
	case ts.n == 1 && ts.t[0].kind == stQuadA:
		for ; m > 0; m, l0 = m-1, l0+row {
			for j, end := l0, l0+span; j < end; j += xstep {
				p := init + (-buf[j-o3]+6*buf[j-o1]+3*buf[j+o1])/8
				c := tile[j]
				if c == quant.OutlierCode {
					outlier = true
				}
				buf[j] = float32(float64(p) + deq[c])
			}
		}
	case ts.n == 1 && ts.t[0].kind == stQuadD:
		for ; m > 0; m, l0 = m-1, l0+row {
			for j, end := l0, l0+span; j < end; j += xstep {
				p := init + (3*buf[j-o1]+6*buf[j+o1]-buf[j+o3])/8
				c := tile[j]
				if c == quant.OutlierCode {
					outlier = true
				}
				buf[j] = float32(float64(p) + deq[c])
			}
		}
	case ts.n == 1 && ts.t[0].kind == stLinear:
		for ; m > 0; m, l0 = m-1, l0+row {
			for j, end := l0, l0+span; j < end; j += xstep {
				p := init + (buf[j-o1]+buf[j+o1])/2
				c := tile[j]
				if c == quant.OutlierCode {
					outlier = true
				}
				buf[j] = float32(float64(p) + deq[c])
			}
		}
	default:
		terms, nf := ts.terms(), float32(ts.n)
		for ; m > 0; m, l0 = m-1, l0+row {
			for j, end := l0, l0+span; j < end; j += xstep {
				p := init
				for _, t := range terms {
					o1, o3 := t.off, 3*t.off
					switch t.kind {
					case stCubic:
						p += (-buf[j-o3] + 9*buf[j-o1] + 9*buf[j+o1] - buf[j+o3]) / 16
					case stQuadA:
						p += (-buf[j-o3] + 6*buf[j-o1] + 3*buf[j+o1]) / 8
					case stQuadD:
						p += (3*buf[j-o1] + 6*buf[j+o1] - buf[j+o3]) / 8
					case stLinear:
						p += (buf[j-o1] + buf[j+o1]) / 2
					case stExtrapP:
						p += (3*buf[j-o1] - buf[j-o3]) / 2
					case stCopyP:
						p += buf[j-o1]
					case stExtrapQ:
						p += (3*buf[j+o1] - buf[j+o3]) / 2
					case stCopyQ:
						p += buf[j+o1]
					default: // stNone
						p += 0
					}
				}
				if len(terms) > 1 {
					p /= nf
				}
				c := tile[j]
				if c == quant.OutlierCode {
					outlier = true
				}
				buf[j] = float32(float64(p) + deq[c])
			}
		}
	}
	return outlier
}

// fixOutliers gives the outlier-coded points among a row's n points their
// values from the outlier list: point i sits at buffer index l0+i*xstep
// and field index d0+i*xstep. A missing value sets b.miss and
// reconstructs as 0.
func (b *block) fixOutliers(l0, d0, n, xstep int) {
	for i := 0; i < n; i++ {
		j := l0 + i*xstep
		if b.tile[j] != quant.OutlierCode {
			continue
		}
		v, ok := b.outl.SortedGet(d0 + i*xstep)
		b.miss = b.miss || !ok
		b.buf[j] = v
	}
}

// tuneRows adds the absolute prediction errors of m rows that share the
// current terms to tuneErr. Tuning's tile holds only ZeroCode, whose
// offset is -0 (see AutoTune), so dequantRows stores each point's
// prediction bits in buf (p + -0 == p, zero signs included). Then, row by
// row in point order, each point's error is added and its original value
// put back: the reference walk's summation order, so the sums, and the
// picks, keep their bits.
func (b *block) tuneRows(z, y, x0, m int, row [2]int, k0, k1, xstep int) {
	l0, d0 := b.local(z, y, x0), b.g.flat(z, y, x0)
	b.dequantRows(l0, m, row[0], k0, k1, xstep)
	buf, data, e := b.buf, b.data, b.tuneErr
	span := (k1 - k0 + b.nHalo) * xstep
	for ; m > 0; m, l0, d0 = m-1, l0+row[0], d0+row[1] {
		for j, d, end := l0, d0, d0+span; d < end; j, d = j+xstep, d+xstep {
			e += math.Abs(float64(data[d]) - float64(buf[j]))
			buf[j] = data[d]
		}
	}
	b.tuneErr = e
}

// encode quantizes the whole block against data with bound twoEB/2. Its
// anchors must already be loaded. The owned codes then go row by row into
// codes (the field's, natural layout) and into hist, and the owned
// outliers, with their values, onto ol in ascending position order: only
// rows whose OutlierCode count rose are searched for them.
func (b *block) encode(data []float32, twoEB float64, codes []uint8, hist *codeHist, ol *quant.Outliers) {
	b.data, b.twoEB = data, twoEB
	b.run(compressWalk)
	g := b.g
	w := b.ohi[2] - b.lo[2]
	nOut := hist.outliers()
	for z := b.lo[0]; z < b.ohi[0]; z++ {
		for y := b.lo[1]; y < b.ohi[1]; y++ {
			f := g.flat(z, y, b.lo[2])
			row := b.tile[b.local(z, y, b.lo[2]):][:w]
			copy(codes[f:f+w], row)
			i := 0
			for ; i+4 <= len(row); i += 4 {
				hist[0][row[i]]++
				hist[1][row[i+1]]++
				hist[2][row[i+2]]++
				hist[3][row[i+3]]++
			}
			for ; i < len(row); i++ {
				hist[0][row[i]]++
			}
			if n := hist.outliers(); n != nOut {
				nOut = n
				for x, c := range row {
					if c == quant.OutlierCode {
						ol.Append(f+x, data[f+x])
					}
				}
			}
		}
	}
	b.data = nil // a pooled block keeps no caller memory alive
}

// codeHist is a code histogram split four ways, so that a run of one code
// spreads its increments over four counters instead of queueing on one.
type codeHist [4][256]uint32

// outliers returns the histogram's OutlierCode count.
func (h *codeHist) outliers() uint32 {
	return h[0][quant.OutlierCode] + h[1][quant.OutlierCode] + h[2][quant.OutlierCode] + h[3][quant.OutlierCode]
}

// decode reconstructs the whole block from codes (the field's, in natural
// layout), deq (deq[c] = (c − ZeroCode)·2eb) and the outlier list. Its
// anchors must already be loaded. b.miss reports an outlier code with no
// value.
func (b *block) decode(codes []uint8, deq *[256]float64, outl *quant.Outliers) {
	w := b.ext[2]
	for z := b.lo[0]; z <= b.hi[0]; z++ {
		for y := b.lo[1]; y <= b.hi[1]; y++ {
			copy(b.tile[b.local(z, y, b.lo[2]):][:w], codes[b.g.flat(z, y, b.lo[2]):])
		}
	}
	b.deq, b.outl, b.miss = deq, outl, false
	b.run(decompressWalk)
	b.deq, b.outl = nil, nil // a pooled block keeps no caller memory alive
}

// storeOwned copies the block's owned points in z-planes [z0, z1), row by
// row, into out, which holds those planes of the field.
func (b *block) storeOwned(out []float32, z0, z1 int) {
	g := b.g
	w := b.ohi[2] - b.lo[2]
	for z := max(b.lo[0], z0); z < min(b.ohi[0], z1); z++ {
		for y := b.lo[1]; y < b.ohi[1]; y++ {
			copy(out[g.flat(z-z0, y, b.lo[2]):][:w], b.buf[b.local(z, y, b.lo[2]):])
		}
	}
}

// run executes all levels coarse-to-fine.
func (b *block) run(mode walkMode) {
	li := 0
	for s := b.cfg.AnchorStride / 2; s >= 1; s >>= 1 {
		b.runLevel(s, b.cfg.PerLevel[li], mode)
		li++
	}
}
