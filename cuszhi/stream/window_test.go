package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/cuszhi"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/quant"
)

// spikyField is a smooth field with sparse large spikes, so a tight
// bound leaves outliers in every interpolation block layer.
func spikyField(dims []int, seed int64) []float32 {
	ps := planeElems(dims)
	data := make([]float32, dims[0]*ps)
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		p, k := i/ps, i%ps
		data[i] = float32(math.Sin(0.2*float64(p)) + math.Cos(0.05*float64(k)))
		if rng.Intn(50) == 0 {
			data[i] += 40 * (rng.Float32() - 0.5)
		}
	}
	return data
}

// testWindows lists plane windows over n planes stored in cp-plane
// shards: 8-plane windows aligned to 8, unaligned ones, windows
// straddling each shard boundary, single planes, the whole field and a
// few random ones.
func testWindows(n, cp int, rng *rand.Rand) [][2]int {
	ws := [][2]int{{0, n}, {0, 1}, {n - 1, n}}
	for lo := 0; lo+8 <= n; lo += 8 {
		ws = append(ws, [2]int{lo, lo + 8}, [2]int{lo + 3, min(lo+11, n)})
	}
	for b := cp; b < n; b += cp {
		ws = append(ws, [2]int{b - 1, b + 1}, [2]int{max(b-5, 0), min(b+4, n)})
	}
	for i := 0; i < 6; i++ {
		lo := rng.Intn(n)
		ws = append(ws, [2]int{lo, lo + 1 + rng.Intn(n-lo)})
	}
	return ws
}

// checkWindows asserts that the sequential Reader and the whole in-memory
// decode agree bit for bit, and that every window ReadPlanes returns is
// the bitwise slice of that decode.
func checkWindows(t *testing.T, label string, blob []byte, cp int, rng *rand.Rand, opt ...Option) {
	t.Helper()
	full, dims, err := Decompress(blob)
	if err != nil {
		t.Fatalf("%s: whole decode: %v", label, err)
	}
	// Decompress and ReaderAt share one decode loop; the sequential Reader
	// walks frames on its own, so it is the independent reference.
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("%s: Reader open: %v", label, err)
	}
	seq, err := r.ReadAllValues()
	r.Close()
	if err == nil {
		err = sameBits(seq, full)
	}
	if err != nil {
		t.Fatalf("%s: Reader disagrees with the whole decode: %v", label, err)
	}
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), opt...)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	ps := planeElems(dims)
	var dst []float32
	for _, w := range testWindows(dims[0], cp, rng) {
		dst, err = ra.ReadPlanes(dst, w[0], w[1])
		if err != nil {
			t.Fatalf("%s: ReadPlanes%v: %v", label, w, err)
		}
		if err := sameBits(dst, full[w[0]*ps:w[1]*ps]); err != nil {
			t.Fatalf("%s: ReadPlanes%v: %v", label, w, err)
		}
	}
}

func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("value %d is %v, whole decode has %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestReadPlanesDifferential is the cross-path property for windowed
// decode: for every mode, 3-D and 4-D dims, plain and degraded readers,
// and a store grown by an append session (short interior chunk), every
// window must equal the slice of stream.Decompress bit for bit.
func TestReadPlanesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	modes := append(append(cuszhi.Modes(), cuszhi.BackendModes()...), cuszhi.ModeAuto)
	for _, tc := range []struct {
		dims []int
		cp   int
	}{
		{[]int{40, 12, 12}, 32}, // a 32-plane shard holds two hi-* block layers
		{[]int{12, 4, 8, 8}, 8}, // a plane is 4 grid z-planes
	} {
		data := spikyField(tc.dims, 22)
		eb := cuszhi.AbsEB(data, 1e-4)
		for _, mode := range modes {
			blob := writeV4(t, data, tc.dims, eb, tc.cp, WithMode(mode))
			label := fmt.Sprintf("%s %v", mode, tc.dims)
			checkWindows(t, label, blob, tc.cp, rng, WithWorkers(2))
			checkWindows(t, label+" degraded", blob, tc.cp, rng, WithDegraded())
		}
	}

	// An append session seals on a short shard, so the grown store has a
	// short interior chunk: 8, 5, then 8, 8, 8, 3 planes.
	dims := []int{40, 12, 12}
	ps := planeElems(dims)
	data := spikyField(dims, 23)
	eb := cuszhi.AbsEB(data, 1e-4)
	for _, mode := range []cuszhi.Mode{cuszhi.ModeCR, cuszhi.ModeCuszI} {
		m := &memFile{b: writeV4(t, data[:13*ps], []int{13, 12, 12}, eb, 8, WithMode(mode))}
		appendPlanes(t, m, data[13*ps:])
		checkWindows(t, string(mode)+" appended", m.b, 8, rng)
	}
}

// dropFirstOutlier rewrites an interpolation v1 payload with the first
// entry of its outlier section removed, leaving its outlier code behind
// without a value. It returns the dropped position.
func dropFirstOutlier(t *testing.T, payload []byte) ([]byte, int) {
	t.Helper()
	off := 6 // magic, version, predictor
	uv := func() int {
		v, n := bitio.Uvarint(payload[off:])
		if n == 0 {
			t.Fatal("truncated payload header")
		}
		off += n
		return int(v)
	}
	for nd := uv(); nd > 0; nd-- {
		uv() // dims
	}
	off += 8 + 2 // eb, pipeline, reorder
	uv()         // anchor stride
	uv()         // block z
	uv()         // block y
	uv()         // block x
	off += 2 * uv()
	off += uv() // anchor bytes
	var o quant.Outliers
	used, err := quant.ParseOutliersInto(nil, &o, payload[off:])
	if err != nil || o.Len() == 0 {
		t.Fatalf("outlier section: %d entries, %v", o.Len(), err)
	}
	short := quant.Outliers{Pos: o.Pos[1:], Val: o.Val[1:]}
	out := append([]byte(nil), payload[:off]...)
	out = short.Serialize(out)
	return append(out, payload[off+used:]...), o.Pos[0]
}

// TestReadPlanesLostOutlierVerdict: a hi-cr chunk whose outlier section
// lacks the value of an outlier code in its first block layer fails every
// window over that chunk — even windows whose blocks never read the code —
// exactly as the whole decode fails; WithDegraded reports the chunk.
func TestReadPlanesLostOutlierVerdict(t *testing.T) {
	dims := []int{48, 12, 12}
	ps := planeElems(dims)
	data := spikyField(dims, 24)
	eb := cuszhi.AbsEB(data, 1e-4)
	cd, _ := core.CodecByName("hi-cr")
	build := func(damage bool) []byte {
		blob, err := core.AppendChunkedHeaderSized(nil, 5, dims, eb, false, 32, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var entries []core.IndexEntry
		for off := 0; off < dims[0]; off += 32 {
			planes := min(32, dims[0]-off)
			shard := data[off*ps : (off+planes)*ps]
			shardDims := []int{planes, dims[1], dims[2]}
			payload, err := cd.Compress(nil, gpusim.Default, shard, shardDims, eb)
			if err != nil {
				t.Fatal(err)
			}
			if damage && off == 0 {
				var pos int
				if payload, pos = dropFirstOutlier(t, payload); pos >= 16*ps {
					t.Fatalf("dropped outlier at plane %d, want one in block layer 0", pos/ps)
				}
			}
			minV, maxV, _ := core.ShardRange(shard)
			entries = append(entries, core.IndexEntry{
				FrameOff: int64(len(blob)), PlaneOff: off, Planes: planes, Codec: cd.ID()})
			blob = core.AppendChunkFrameV5(blob, cd, off, shardDims, minV, maxV, payload)
		}
		return core.AppendChunkIndexFooter(blob, 5, int64(len(blob)), entries)
	}
	intact, bad := build(false), build(true)
	ref, _, err := Decompress(intact)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(bad); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("whole decode: want ErrCorrupt, got %v", err)
	}
	strict, err := OpenReaderAt(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := OpenReaderAt(bytes.NewReader(bad), int64(len(bad)), WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range testWindows(dims[0], 32, rand.New(rand.NewSource(25))) {
		lo, hi := w[0], w[1]
		_, err := strict.ReadPlanes(nil, lo, hi)
		vals, derr := degraded.ReadPlanes(nil, lo, hi)
		if lo >= 32 { // chunk 1 only: intact
			if err != nil || derr != nil {
				t.Fatalf("window %v over the intact chunk: %v / %v", w, err, derr)
			}
			if err := sameBits(vals, ref[lo*ps:hi*ps]); err != nil {
				t.Fatalf("window %v: %v", w, err)
			}
			continue
		}
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("window %v: want ErrCorrupt, got %v", w, err)
		}
		var rep *DamageReport
		if !errors.As(derr, &rep) || len(rep.Chunks) != 1 || rep.Chunks[0].Chunk != 0 {
			t.Fatalf("window %v degraded: want chunk 0 reported, got %v", w, derr)
		}
		checkDegraded(t, vals, ref[lo*ps:hi*ps], 0, min(hi, 32)-lo, ps,
			func(v float32) bool { return math.IsNaN(float64(v)) })
	}
}

// TestReadPlanesConcurrent: goroutines sharing one ReaderAt each read
// their own windows; the pooled contexts that hold frame bytes and decode
// scratch must never leak one window's data into another's.
func TestReadPlanesConcurrent(t *testing.T) {
	dims := []int{64, 12, 12}
	ps := planeElems(dims)
	data := spikyField(dims, 27)
	blob := writeV4(t, data, dims, cuszhi.AbsEB(data, 1e-4), 32, WithMode(cuszhi.ModeCR))
	full, _, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []float32
			for lo := g; lo+8 <= dims[0]; lo += 5 {
				var err error
				if dst, err = ra.ReadPlanes(dst, lo, lo+8); err != nil {
					t.Errorf("ReadPlanes(%d, %d): %v", lo, lo+8, err)
					return
				}
				if err := sameBits(dst, full[lo*ps:(lo+8)*ps]); err != nil {
					t.Errorf("ReadPlanes(%d, %d): %v", lo, lo+8, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
