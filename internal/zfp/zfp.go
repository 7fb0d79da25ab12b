// Package zfp implements the fixed-rate ZFP compression algorithm
// (Lindstrom, TVCG 2014) for float32 fields in 1/2/3 dimensions — the
// algorithm behind the cuZFP baseline of the cuSZ-Hi evaluation.
//
// Each 4^d block is converted to a block-floating-point integer
// representation, decorrelated with the ZFP lifting transform along every
// dimension, reordered by total sequency, mapped to negabinary, and encoded
// as bit planes MSB-first with embedded group testing. Fixed-rate mode
// gives every block exactly rate·4^d bits, so compressed offsets are
// random-accessible, mirroring cuZFP's design.
//
// Note: like real ZFP, the lifting transform drops low-order bits (it is
// range-contracting), so reconstruction error is bounded by the encoding
// precision rather than a user error bound; cuZFP therefore only appears in
// the rate-distortion and throughput experiments of the paper, not in the
// fixed-eb tables.
package zfp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/gpusim"
)

// ErrCorrupt reports a malformed container.
var ErrCorrupt = errors.New("zfp: corrupt stream")

const intprec = 32

// perms[d] is the sequency ordering of the 4^d coefficients.
var perms = buildPerms()

func buildPerms() [4][]int {
	var out [4][]int
	for d := 1; d <= 3; d++ {
		n := 1 << (2 * d) // 4^d
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		coord := func(v int) (x, y, z int) {
			x = v & 3
			if d > 1 {
				y = (v >> 2) & 3
			}
			if d > 2 {
				z = (v >> 4) & 3
			}
			return
		}
		sort.SliceStable(idx, func(a, b int) bool {
			xa, ya, za := coord(idx[a])
			xb, yb, zb := coord(idx[b])
			sa, sb := xa+ya+za, xb+yb+zb
			if sa != sb {
				return sa < sb
			}
			qa, qb := xa*xa+ya*ya+za*za, xb*xb+yb*yb+zb*zb
			if qa != qb {
				return qa < qb
			}
			return idx[a] < idx[b]
		})
		out[d] = idx
	}
	return out
}

// fwdLift applies the ZFP forward lifting step to 4 values at stride s.
func fwdLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// invLift inverts fwdLift (up to ZFP's documented LSB contraction).
func invLift(p []int32, off, s int) {
	x, y, z, w := p[off], p[off+s], p[off+2*s], p[off+3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[off], p[off+s], p[off+2*s], p[off+3*s] = x, y, z, w
}

// transform applies the lifting along every dimension of a 4^d block.
func transform(coeff []int32, d int, inverse bool) {
	lift := fwdLift
	if inverse {
		lift = invLift
	}
	switch d {
	case 1:
		lift(coeff, 0, 1)
	case 2:
		if !inverse {
			for y := 0; y < 4; y++ {
				lift(coeff, 4*y, 1) // along x
			}
			for x := 0; x < 4; x++ {
				lift(coeff, x, 4) // along y
			}
		} else {
			for x := 0; x < 4; x++ {
				lift(coeff, x, 4)
			}
			for y := 0; y < 4; y++ {
				lift(coeff, 4*y, 1)
			}
		}
	case 3:
		if !inverse {
			for z := 0; z < 4; z++ {
				for y := 0; y < 4; y++ {
					lift(coeff, 16*z+4*y, 1) // x
				}
			}
			for z := 0; z < 4; z++ {
				for x := 0; x < 4; x++ {
					lift(coeff, 16*z+x, 4) // y
				}
			}
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					lift(coeff, 4*y+x, 16) // z
				}
			}
		} else {
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					lift(coeff, 4*y+x, 16)
				}
			}
			for z := 0; z < 4; z++ {
				for x := 0; x < 4; x++ {
					lift(coeff, 16*z+x, 4)
				}
			}
			for z := 0; z < 4; z++ {
				for y := 0; y < 4; y++ {
					lift(coeff, 16*z+4*y, 1)
				}
			}
		}
	}
}

const negabinaryMask = 0xAAAAAAAA

func toNegabinary(i int32) uint32 {
	return (uint32(i) + negabinaryMask) ^ negabinaryMask
}

func fromNegabinary(u uint32) int32 {
	return int32((u ^ negabinaryMask) - negabinaryMask)
}

// encodeBlock writes one block's payload: zero flag, biased exponent, and
// group-tested bit planes, using exactly maxBits bits (zero padded).
func encodeBlock(vals []int32, emax int, empty bool, d, maxBits int, w *bitio.Writer) {
	n4 := 1 << (2 * d)
	budget := maxBits
	put := func(v uint64, nb int) {
		if nb > budget {
			nb = budget
		}
		if nb > 0 {
			w.WriteBits(v, uint(nb))
			budget -= nb
		}
	}
	if empty {
		put(0, 1)
		put(0, budget)
		return
	}
	put(1, 1)
	put(uint64(emax+300), 10)
	// Gather negabinary coefficients in perm order.
	var u [64]uint32
	perm := perms[d]
	for i := 0; i < n4; i++ {
		u[i] = toNegabinary(vals[perm[i]])
	}
	n := 0
	for k := intprec - 1; k >= 0 && budget > 0; k-- {
		// Gather plane k.
		var x uint64
		for i := 0; i < n4; i++ {
			x |= uint64(u[i]>>uint(k)&1) << uint(i)
		}
		// First n bits raw.
		put(x&((1<<uint(n))-1), n)
		x >>= uint(n)
		m := n
		for m < n4 && budget > 0 {
			if x != 0 {
				put(1, 1)
			} else {
				put(0, 1)
				break
			}
			for budget > 0 {
				bit := x & 1
				put(bit, 1)
				x >>= 1
				m++
				if bit == 1 || m == n4 {
					break
				}
			}
		}
		if m > n {
			n = m
		}
	}
	put(0, budget)
}

// decodeBlock reads one block payload of exactly maxBits bits.
func decodeBlock(r *bitio.Reader, d, maxBits int) (vals [64]int32, emax int, empty bool, err error) {
	n4 := 1 << (2 * d)
	budget := maxBits
	get := func(nb int) uint64 {
		if nb > budget {
			nb = budget
		}
		if nb <= 0 {
			return 0
		}
		v, e := r.ReadBits(uint(nb))
		if e != nil {
			err = ErrCorrupt
			budget = 0
			return 0
		}
		budget -= nb
		return v
	}
	skip := func() {
		for budget > 0 {
			step := budget
			if step > 64 {
				step = 64
			}
			get(step)
		}
	}
	flag := get(1)
	if err != nil {
		return
	}
	if flag == 0 {
		empty = true
		skip()
		return
	}
	emax = int(get(10)) - 300
	var u [64]uint32
	n := 0
	for k := intprec - 1; k >= 0 && budget > 0; k-- {
		x := get(n)
		m := n
		for m < n4 && budget > 0 {
			if get(1) == 0 {
				break
			}
			for budget > 0 {
				bit := get(1)
				if bit == 1 {
					x |= 1 << uint(m)
					m++
					break
				}
				m++
				if m == n4 {
					break
				}
			}
		}
		if m > n {
			n = m
		}
		for i := 0; i < n4; i++ {
			if x>>uint(i)&1 != 0 {
				u[i] |= 1 << uint(k)
			}
		}
	}
	skip()
	perm := perms[d]
	for i := 0; i < n4; i++ {
		vals[perm[i]] = fromNegabinary(u[i])
	}
	return
}

// norm3 normalizes dims to (nz, ny, nx) and the effective dimensionality.
func norm3(dims []int) (nz, ny, nx, d int, err error) {
	switch len(dims) {
	case 1:
		nz, ny, nx, d = 1, 1, dims[0], 1
	case 2:
		nz, ny, nx, d = 1, dims[0], dims[1], 2
	case 3:
		nz, ny, nx, d = dims[0], dims[1], dims[2], 3
	default:
		return 0, 0, 0, 0, fmt.Errorf("zfp: %d dims unsupported", len(dims))
	}
	if nz <= 0 || ny <= 0 || nx <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("zfp: invalid dims %v", dims)
	}
	return
}

// minBlockBits is the smallest per-block budget (flag + exponent + one
// plane bit).
const minBlockBits = 16

// blockBitsFor converts a bits-per-value rate to the fixed per-block bit
// budget.
func blockBitsFor(rate float64, d int) int {
	bits := int(math.Round(rate * float64(int(1)<<(2*d))))
	if bits < minBlockBits {
		bits = minBlockBits
	}
	return bits
}

// CompressRate encodes data at a possibly fractional rate in bits per
// value (cuZFP supports sub-1-bit rates, which Fig. 9 of the paper uses to
// reach ratios above 32).
func CompressRate(dev *gpusim.Device, data []float32, dims []int, rate float64) ([]byte, error) {
	nz, ny, nx, d, err := norm3(dims)
	if err != nil {
		return nil, err
	}
	if nz*ny*nx != len(data) {
		return nil, fmt.Errorf("zfp: dims %v do not match %d values", dims, len(data))
	}
	if !(rate > 0) || rate > 30 {
		return nil, fmt.Errorf("zfp: rate %v out of range (0,30]", rate)
	}
	nbz, nby, nbx := (nz+3)/4, (ny+3)/4, (nx+3)/4
	nBlocks := nbz * nby * nbx
	bits := blockBitsFor(rate, d)
	blockBytes := (bits + 7) / 8
	payload := make([]byte, nBlocks*blockBytes)
	dev.Launch(nBlocks, func(b int) {
		bx := b % nbx
		by := (b / nbx) % nby
		bz := b / (nbx * nby)
		var vals [64]float32
		n4 := 1 << (2 * d)
		maxAbs := float64(0)
		for i := 0; i < n4; i++ {
			x := bx*4 + i&3
			y := by*4 + (i>>2)&3
			z := bz*4 + (i>>4)&3
			// Edge-replicate partial blocks.
			if x > nx-1 {
				x = nx - 1
			}
			if y > ny-1 {
				y = ny - 1
			}
			if z > nz-1 {
				z = nz - 1
			}
			v := data[(z*ny+y)*nx+x]
			vals[i] = v
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		w := bitio.NewWriter(blockBytes)
		if maxAbs == 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
			encodeBlock(nil, 0, true, d, bits, w)
		} else {
			_, e := math.Frexp(maxAbs)
			var coeff [64]int32
			scale := math.Ldexp(1, 30-e)
			for i := 0; i < n4; i++ {
				coeff[i] = int32(float64(vals[i]) * scale)
			}
			transform(coeff[:], d, false)
			encodeBlock(coeff[:], e, false, d, bits, w)
		}
		copy(payload[b*blockBytes:], w.Bytes())
	})
	out := bitio.AppendUvarint(nil, uint64(len(dims)))
	for _, dd := range dims {
		out = bitio.AppendUvarint(out, uint64(dd))
	}
	out = bitio.AppendUvarint(out, uint64(bits))
	return append(out, payload...), nil
}

// Decompress decodes a container, returning the field and its dims.
func Decompress(dev *gpusim.Device, blob []byte) ([]float32, []int, error) {
	nd64, n := bitio.Uvarint(blob)
	if n == 0 || nd64 < 1 || nd64 > 3 {
		return nil, nil, ErrCorrupt
	}
	off := n
	dims := make([]int, nd64)
	// Cap the running element-count product as dims are parsed: each dim is
	// individually <= 2^30, but three together reach 2^90, which wraps the
	// int64 product — possibly to a small value that slips past the total
	// check below.
	total64 := int64(1)
	for i := range dims {
		v, n := bitio.Uvarint(blob[off:])
		if n == 0 || v == 0 || v > 1<<30 {
			return nil, nil, ErrCorrupt
		}
		off += n
		dims[i] = int(v)
		total64 *= int64(v)
		if total64 > 1<<31 {
			return nil, nil, ErrCorrupt
		}
	}
	bits64, n := bitio.Uvarint(blob[off:])
	if n == 0 || bits64 < minBlockBits || bits64 > 30<<6 {
		return nil, nil, ErrCorrupt
	}
	off += n
	bits := int(bits64)
	nz, ny, nx, d, err := norm3(dims)
	if err != nil {
		return nil, nil, ErrCorrupt
	}
	total := nz * ny * nx
	if total > 1<<31 {
		return nil, nil, ErrCorrupt
	}
	nbz, nby, nbx := (nz+3)/4, (ny+3)/4, (nx+3)/4
	nBlocks := nbz * nby * nbx
	blockBytes := (bits + 7) / 8
	if off+nBlocks*blockBytes > len(blob) {
		return nil, nil, ErrCorrupt
	}
	out := make([]float32, total)
	var failed atomic.Bool
	dev.Launch(nBlocks, func(b int) {
		r := bitio.NewReader(blob[off+b*blockBytes : off+(b+1)*blockBytes])
		vals, emax, empty, err := decodeBlock(r, d, bits)
		if err != nil {
			failed.Store(true)
		}
		if !empty {
			transform(vals[:], d, true)
		}
		bx := b % nbx
		by := (b / nbx) % nby
		bz := b / (nbx * nby)
		n4 := 1 << (2 * d)
		scale := math.Ldexp(1, emax-30)
		for i := 0; i < n4; i++ {
			x := bx*4 + i&3
			y := by*4 + (i>>2)&3
			z := bz*4 + (i>>4)&3
			if x > nx-1 || y > ny-1 || z > nz-1 {
				continue
			}
			var v float32
			if !empty {
				v = float32(float64(vals[i]) * scale)
			}
			out[(z*ny+y)*nx+x] = v
		}
	})
	if failed.Load() {
		return nil, nil, ErrCorrupt
	}
	return out, dims, nil
}
