// Package quant implements the quantization-code machinery of cuSZ-Hi:
// one-byte quantization codes with a separately stored outlier list
// (§5.2.1) and the mapping-based level-order reordering of Eq. 3 (§5.1.4).
package quant

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"repro/internal/arena"
	"repro/internal/bitio"
	"repro/internal/gpusim"
)

// ErrCorrupt reports a malformed outlier section, or an outlier code whose
// value the section does not hold.
var ErrCorrupt = errors.New("quant: corrupt outlier section")

const (
	// Radius is the symmetric quantization-code radius representable in one
	// byte: codes 1..255 encode q in [-127, 127]; code 0 marks an outlier.
	Radius = 127
	// ZeroCode is the code of a perfectly predicted point (q = 0).
	ZeroCode = 128
	// OutlierCode marks points stored losslessly in the outlier list.
	OutlierCode = 0
)

// Quantize maps a prediction error to a code and the reconstructed value.
// outlier is true when the error exceeds the code radius (or float32
// rounding would break the bound), in which case the caller must store val
// losslessly and recon == val.
func Quantize(val, pred float32, twoEB float64) (code uint8, recon float32, outlier bool) {
	d := float64(val) - float64(pred)
	qf := math.Round(d / twoEB)
	if qf >= -Radius && qf <= Radius {
		r := float32(float64(pred) + qf*twoEB)
		if math.Abs(float64(val)-float64(r)) <= twoEB/2 {
			return uint8(int(qf) + ZeroCode), r, false
		}
	}
	return OutlierCode, val, true
}

// Dequantize reconstructs a value from a non-outlier code.
func Dequantize(code uint8, pred float32, twoEB float64) float32 {
	return float32(float64(pred) + float64(int(code)-ZeroCode)*twoEB)
}

// TryQuantize is Quantize's arithmetic for a fused predict-and-quantize
// pass, with the prediction already widened to float64 and half =
// twoEB/2: ok reports a point inside the code radius and the bound, with
// its code and reconstruction. Otherwise the point is an outlier (code
// OutlierCode, reconstruction val) and code and recon are meaningless.
// Code, reconstruction and outlier flag are those of Quantize, which
// stays the reference.
//
// Rounding adds the largest double below 0.5, with the sign of x, and
// truncates: that is math.Round for every finite x, the sign of a zero
// included, because a tie x = n+0.5 sums to within half a spacing of
// n+1 (or, at x = 0.5, to a tie that rounds to even, 1) while anything
// below a tie stays below n+1. NaN and ±Inf quotients fall outside the
// radius as they do in Quantize. One math.Trunc is one ROUNDSD behind a
// CPU-feature check under the default GOAMD64=v1, so the dependency chain
// is shorter than that of t + trunc(2(x-t)) with t = trunc(x), which
// needs two in a row; integer truncation measured slower than either.
// The bound check is two compares instead of math.Abs, and the
// reconstruction is formed before the range check; both keep the
// function within the inlining budget. Callers branch on ok and store on
// each branch (a value select, r := val; if ok { r = recon }, measured
// 2× slower).
func TryQuantize(val float32, pred, twoEB, half float64) (code uint8, recon float32, ok bool) {
	x := (float64(val) - pred) / twoEB
	q := math.Trunc(x + math.Float64frombits(math.Float64bits(x)&(1<<63)|0x3fdfffffffffffff))
	r := float32(pred + q*twoEB)
	e := float64(val) - float64(r)
	return uint8(int(q) + ZeroCode), r, q >= -Radius && q <= Radius && e <= half && e >= -half
}

// ---------------------------------------------------------------------------
// Outlier list.

// Outliers stores losslessly kept points: flat positions (ascending) and
// their original float32 values.
type Outliers struct {
	Pos []int
	Val []float32
}

// Append records one outlier.
func (o *Outliers) Append(pos int, val float32) {
	o.Pos = append(o.Pos, pos)
	o.Val = append(o.Val, val)
}

// Len returns the number of outliers.
func (o *Outliers) Len() int { return len(o.Pos) }

// Serialize appends the section to dst: count, delta-varint positions, raw
// float32 values.
func (o *Outliers) Serialize(dst []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(len(o.Pos)))
	prev := 0
	for _, p := range o.Pos {
		dst = bitio.AppendUvarint(dst, uint64(p-prev))
		prev = p
	}
	for _, v := range o.Val {
		dst = bitio.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// ParseOutliersInto decodes a section produced by Serialize into o, drawing
// o's backing arrays from ctx (scratch, valid until ctx.Reset; plain
// allocations when ctx is nil). It returns the number of bytes consumed.
func ParseOutliersInto(ctx *arena.Ctx, o *Outliers, p []byte) (int, error) {
	count64, n := bitio.Uvarint(p)
	if n == 0 {
		return 0, ErrCorrupt
	}
	off := n
	count, ok := bitio.IntLen(count64)
	if !ok || count > len(p) { // each entry needs >= 5 bytes
		return 0, ErrCorrupt
	}
	o.Pos = ctx.Ints(count)
	o.Val = ctx.F32(count)
	prev := 0
	for i := 0; i < count; i++ {
		d, n := bitio.Uvarint(p[off:])
		// Cap the delta before converting: consumers bounds-check positions
		// before indexing, but a wrapped int would corrupt the running sum
		// into a plausible-looking (wrong) position instead of failing here.
		if n == 0 || d > bitio.MaxWireLen {
			return 0, ErrCorrupt
		}
		off += n
		prev += int(d)
		o.Pos[i] = prev
	}
	if off+4*count > len(p) {
		return 0, ErrCorrupt
	}
	for i := 0; i < count; i++ {
		o.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[off:]))
		off += 4
	}
	return off, nil
}

// SortedGet returns the value at position pos by binary search. Positions
// must be ascending, which both Compress (sorted merge) and the serialized
// form (delta-coded) guarantee — it keeps the decompression path
// allocation-free (the map-building Lookup it replaced allocated a fresh
// map per call).
func (o *Outliers) SortedGet(pos int) (float32, bool) {
	i := sort.SearchInts(o.Pos, pos)
	if i < len(o.Pos) && o.Pos[i] == pos {
		return o.Val[i], true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Level-order reordering (Eq. 3).

// permMemo caches the last permutation computed through a context, so a
// caller applying the same (dims, stride) permutation to every shard
// rebuilds it once per context.
type permMemo struct {
	nz, ny, nx, stride int
	perm               []int32
}

var permAuxKey = arena.NewAuxKey()

// LevelOrderPermCtx returns the Eq. 3 permutation for a grid with the
// given dims (slowest dim first, up to 3 dims) and anchor stride A (power
// of two): perm[k] is the flat natural index of the k-th element of the
// reordered sequence. Codes from the anchor lattice come first, then each
// finer interpolation level in coarse-to-fine order, matching §5.1.4
// ("codes from the larger interpolation strides appear first").
//
// The codec reorders with Gather and Scatter, which walk this order in
// closed form; the materialized table is their reference. With a non-nil
// ctx the result is memoized on it: the returned slice is owned by the
// context (do not modify) and stays valid across Resets. It holds one
// int32 per point, so the codec itself uses Gather/Scatter.
func LevelOrderPermCtx(ctx *arena.Ctx, dims []int, anchorStride int) []int32 {
	nz, ny, nx := norm3(dims)
	if ctx != nil {
		if m, ok := ctx.Aux(permAuxKey).(*permMemo); ok &&
			m.nz == nz && m.ny == ny && m.nx == nx && m.stride == anchorStride {
			return m.perm
		}
	}
	perm := levelOrderPerm(nz, ny, nx, anchorStride)
	ctx.SetAux(permAuxKey, &permMemo{nz: nz, ny: ny, nx: nx, stride: anchorStride, perm: perm})
	return perm
}

func levelOrderPerm(nz, ny, nx, anchorStride int) []int32 {
	L := log2(anchorStride)
	n := nz * ny * nx
	perm := make([]int32, 0, n)
	for l := L; l >= 0; l-- {
		step := 1 << uint(l)
		coarse := step * 2
		for z := 0; z < nz; z += step {
			zc := l < L && z%coarse == 0
			for y := 0; y < ny; y += step {
				yc := y%coarse == 0
				for x := 0; x < nx; x += step {
					if zc && yc && x%coarse == 0 {
						continue // belongs to a coarser level
					}
					perm = append(perm, int32((z*ny+y)*nx+x))
				}
			}
		}
	}
	return perm
}

// Apply gathers src into level order through a permutation table:
// dst[k] = src[perm[k]]. Gather does the same for LevelOrderPermCtx's table
// without building it, with Apply as its reference. The kernel runs
// 8-wide over pinned views of the sequential side; only the gather loads
// stay bounds-checked (their indices are data-dependent).
//
//cuszhi:hotpath
func Apply(dev *gpusim.Device, perm []int32, src, dst []uint8) {
	dev.LaunchBatched(len(perm), 1<<16, 8, func(lo, hi int) {
		p := perm[lo:hi:hi]
		d := dst[lo:hi:hi]
		n := hi - lo
		k := 0
		for ; k+8 <= n; k += 8 {
			p8 := p[k : k+8 : k+8]
			d8 := d[k : k+8 : k+8]
			d8[0] = src[p8[0]]
			d8[1] = src[p8[1]]
			d8[2] = src[p8[2]]
			d8[3] = src[p8[3]]
			d8[4] = src[p8[4]]
			d8[5] = src[p8[5]]
			d8[6] = src[p8[6]]
			d8[7] = src[p8[7]]
		}
		for ; k < n; k++ {
			d[k] = src[p[k]]
		}
	})
}

// Invert scatters level-ordered data back: dst[perm[k]] = src[k], 8-wide
// like Apply with the scatter stores bounds-checked.
//
//cuszhi:hotpath
func Invert(dev *gpusim.Device, perm []int32, src, dst []uint8) {
	dev.LaunchBatched(len(perm), 1<<16, 8, func(lo, hi int) {
		p := perm[lo:hi:hi]
		s := src[lo:hi:hi]
		n := hi - lo
		k := 0
		for ; k+8 <= n; k += 8 {
			p8 := p[k : k+8 : k+8]
			s8 := s[k : k+8 : k+8]
			dst[p8[0]] = s8[0]
			dst[p8[1]] = s8[1]
			dst[p8[2]] = s8[2]
			dst[p8[3]] = s8[3]
			dst[p8[4]] = s8[4]
			dst[p8[5]] = s8[5]
			dst[p8[6]] = s8[6]
			dst[p8[7]] = s8[7]
		}
		for ; k < n; k++ {
			dst[p[k]] = s[k]
		}
	})
}

// Gather writes natural-order codes in Eq. 3 level order, exactly as
// Apply(dev, LevelOrderPermCtx(nil, dims, anchorStride), natural, ordered) does,
// without the table: level l's sequence is its z-planes in turn, and each
// plane's offset in it is closed-form, so one launch block per (level,
// z-plane) copies strided rows straight across.
func Gather(dev *gpusim.Device, dims []int, anchorStride int, natural, ordered []uint8) {
	walkLevelOrder(dev, dims, anchorStride, natural, ordered, false)
}

// Scatter reverses Gather: it writes level-ordered codes back to natural
// order, exactly as Invert with LevelOrderPermCtx's table does.
func Scatter(dev *gpusim.Device, dims []int, anchorStride int, ordered, natural []uint8) {
	walkLevelOrder(dev, dims, anchorStride, natural, ordered, true)
}

// levelPlanes sizes level l of the Eq. 3 order over an (nz, ny, nx) grid
// with anchor stride 1<<L. Level l visits the z-planes z = j·2^l; on
// planes with odd j, and on every plane of level L, it takes all points
// on the 2^l lattice. On the other planes the 2^(l+1) lattice belongs to
// coarser levels, so rows with y ≡ 0 mod 2^(l+1) take only their odd
// multiples of 2^l.
type levelPlanes struct {
	planes       int // z-planes the level visits
	fine, coarse int // points per odd-j plane and per even-j plane
}

// multiples counts the multiples of s in [0, n).
func multiples(n, s int) int { return (n + s - 1) / s }

func newLevelPlanes(nz, ny, nx, l, L int) levelPlanes {
	step := 1 << uint(l)
	rows, fullRow := multiples(ny, step), multiples(nx, step)
	p := levelPlanes{planes: multiples(nz, step), fine: rows * fullRow}
	p.coarse = p.fine
	if l < L {
		coarseRows, oddX := multiples(ny, 2*step), fullRow-multiples(nx, 2*step)
		p.coarse = coarseRows*oddX + (rows-coarseRows)*fullRow
	}
	return p
}

// offset is plane j's first position within its level: planes 0, 2, 4, …
// before it are coarse, planes 1, 3, … fine.
func (p levelPlanes) offset(j int) int { return (j+1)/2*p.coarse + j/2*p.fine }

// size is the level's point count.
func (p levelPlanes) size() int { return p.offset(p.planes) }

// walkLevelOrder copies between natural and level order, one launch block
// per (level, z-plane): natural → ordered, or ordered → natural when
// scatter is set. A block finds its level and run offset by summing the
// level sizes before it, at most log2(anchorStride)+1 of them.
//
//cuszhi:hotpath
func walkLevelOrder(dev *gpusim.Device, dims []int, anchorStride int, natural, ordered []uint8, scatter bool) {
	nz, ny, nx := norm3(dims)
	L := log2(anchorStride)
	blocks := 0
	for l := 0; l <= L; l++ {
		blocks += multiples(nz, 1<<uint(l))
	}
	dev.Launch(blocks, func(b int) {
		k, l := 0, L
		p := newLevelPlanes(nz, ny, nx, l, L)
		for b >= p.planes {
			b -= p.planes
			k += p.size()
			l--
			p = newLevelPlanes(nz, ny, nx, l, L)
		}
		copyLevelPlane(natural, ordered, k+p.offset(b), b<<uint(l), ny, nx, l, l < L && b%2 == 0, scatter)
	})
}

// copyLevelPlane copies one z-plane of level l between natural order and
// level order, where the plane's run starts at ordered[k]. On a coarse
// plane, rows on the 2^(l+1) lattice hold only their odd multiples of 2^l.
//
//cuszhi:hotpath
func copyLevelPlane(natural, ordered []uint8, k, z, ny, nx, l int, coarse, scatter bool) {
	step := 1 << uint(l)
	for y := 0; y < ny; y += step {
		row := natural[(z*ny+y)*nx : (z*ny+y+1)*nx]
		x0, xs := 0, step
		if coarse && y%(2*step) == 0 {
			x0, xs = step, 2*step
		}
		n := multiples(nx-x0, xs)
		run := ordered[k : k+n : k+n]
		k += n
		switch {
		case xs == 1 && scatter:
			copy(row, run)
		case xs == 1:
			copy(run, row)
		case scatter:
			for i, x := 0, x0; i < n; i, x = i+1, x+xs {
				row[x] = run[i]
			}
		default:
			for i, x := 0, x0; i < n; i, x = i+1, x+xs {
				run[i] = row[x]
			}
		}
	}
}

func norm3(dims []int) (nz, ny, nx int) {
	switch len(dims) {
	case 1:
		return 1, 1, dims[0]
	case 2:
		return 1, dims[0], dims[1]
	case 3:
		return dims[0], dims[1], dims[2]
	default:
		nz = 1
		for _, d := range dims[:len(dims)-2] {
			nz *= d
		}
		return nz, dims[len(dims)-2], dims[len(dims)-1]
	}
}

func log2(v int) int {
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}

// HistEntropyBits returns the Shannon entropy of a code histogram in bits
// per symbol — the information-theoretic floor any entropy stage pays per
// quant code. The auto-mode estimator uses it (and its per-bitplane
// sibling in core) to score candidate pipelines from the fused
// quantization histogram without compressing anything.
//
//cuszhi:hotpath
func HistEntropyBits(freq []int64) float64 {
	var total int64
	for _, f := range freq {
		total += f
	}
	if total <= 0 {
		return 0
	}
	inv := 1 / float64(total)
	var h float64
	for _, f := range freq {
		if f > 0 {
			p := float64(f) * inv
			h -= p * math.Log2(p)
		}
	}
	return h
}
