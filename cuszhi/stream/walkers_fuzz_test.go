package stream

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/cuszhi"
	"repro/internal/core"
	"repro/internal/gpusim"
)

// frameWalkerSeeds builds small v1–v5 containers — fixed assemblies,
// backends, v2/v3 footerless layouts and mixed auto stores — and the
// containers of FuzzOpenAppend's corpus, then adds truncations and single-
// byte flips of each: at fixed structural offsets, inside every frame and
// inside the footer body.
func frameWalkerSeeds(t testing.TB) [][]byte {
	dims := []int{6, 8, 8}
	data := make([]float32, 6*8*8)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = float32(i%19) * 0.25
		if i >= 4*64 { // the last two planes are noise: auto mode mixes codecs
			data[i] = float32(rng.NormFloat64())
		}
	}
	oneShot, err := cuszhi.New(cuszhi.ModeTP)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := oneShot.CompressAbs(data, dims, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := core.CodecByName(string(cuszhi.ModeTP))
	v2, err := core.CompressChunked(gpusim.Default, data, dims, 2, core.EncodeSpec{Version: 2, EB: 0.05, Codec: tp})
	if err != nil {
		t.Fatal(err)
	}
	blobs := [][]byte{v1, v2,
		writeV4(t, data, dims, 0.01, 2, WithMode(cuszhi.ModeCuszL), WithIndex(false), WithRelativeEB()),
		writeV4(t, data, dims, 0.05, 2, WithMode(cuszhi.ModeCR)),
		writeV4(t, data, dims, 0.05, 3, WithMode("szp")),
		writeV4(t, data, dims, 0.05, 2, WithMode("fzgpu")),
		writeV4(t, data, dims, 0.05, 2, WithAutoMode()),
		writeV4(t, data, dims, 1e-4, 1, WithAutoMode()),
	}
	appendDims := []int{7, 3, 3} // FuzzOpenAppend's store
	appendData := make([]float32, 7*9)
	for i := range appendData {
		appendData[i] = float32(i) * 0.25
	}
	blobs = append(blobs, writeV4(t, appendData, appendDims, 0.01, 2, WithMode("szx")))

	var seeds [][]byte
	for _, blob := range blobs {
		seeds = append(seeds, blob)
		for _, cut := range []int{5, 11, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
			seeds = append(seeds, blob[:cut])
		}
		flips := []int64{4, 5, 6, 8, 16, int64(len(blob)) - 5}
		if rec, err := core.ScanRecovery(bytes.NewReader(blob), int64(len(blob))); err == nil {
			for i, e := range rec.Entries {
				end := rec.FramesEnd
				if i+1 < len(rec.Entries) {
					end = rec.Entries[i+1].FrameOff
				}
				flips = append(flips, e.FrameOff+1, (e.FrameOff+end)/2)
			}
			if rec.FramesEnd < rec.Size {
				flips = append(flips, rec.FramesEnd+1)
			}
		}
		for _, at := range flips {
			mut := append([]byte(nil), blob...)
			mut[at] ^= 0x81
			seeds = append(seeds, mut)
		}
	}
	for _, dir := range []string{"../testdata/fuzz/FuzzDecompress", "testdata/fuzz/FuzzOpenAppend"} {
		seeds = append(seeds, corpusBlobs(t, dir)...)
	}
	return seeds
}

// corpusBlobs reads the []byte values of a `go test fuzz v1` corpus
// directory; a missing directory holds none.
func corpusBlobs(t testing.TB, dir string) [][]byte {
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(b))
	}
	return out
}

// FuzzFrameWalkers is a differential check of the readers built on the
// one frame walker: the strict in-memory decode, the sequential Reader,
// ReaderAt (whole field and one window), Scrub and the crash-recovery
// scan must agree on every input. When the strict decode succeeds, every
// other reader returns the same bits, Scrub finds the store clean and the
// recovery scan finds it sealed; when Scrub finds a damaged chunk, the
// strict decode fails; the strict decode fails only with ErrCorrupt, and
// then so does a whole-field ReadPlanes (or the open before it), so the
// two whole-field paths agree on the verdict both ways.
func FuzzFrameWalkers(f *testing.F) {
	for _, s := range frameWalkerSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		want, dims, derr := Decompress(blob)
		if derr != nil && !errors.Is(derr, core.ErrCorrupt) {
			t.Fatalf("strict decode failed without ErrCorrupt: %v", derr)
		}
		size := int64(len(blob))
		rep, serr := Scrub(bytes.NewReader(blob), size)
		if serr == nil && len(rep.Damaged) > 0 && derr == nil {
			t.Fatalf("scrub found damage the strict decode accepted: %s", rep.Summary())
		}
		if derr != nil {
			ra, err := OpenReaderAt(bytes.NewReader(blob), size)
			if err == nil {
				_, err = ra.ReadPlanes(nil, 0, ra.Dims()[0])
			}
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("strict decode failed (%v) but whole-field ReadPlanes returned %v", derr, err)
			}
			return
		}
		r, err := NewReader(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("Reader open: %v", err)
		}
		got, err := r.ReadAllValues()
		r.Close()
		if err == nil {
			err = sameBits(got, want)
		}
		if err != nil {
			t.Fatalf("Reader disagrees with the strict decode: %v", err)
		}
		ra, err := OpenReaderAt(bytes.NewReader(blob), size)
		if err != nil {
			t.Fatalf("ReaderAt open: %v", err)
		}
		ps := len(want) / dims[0]
		for _, w := range [][2]int{{0, dims[0]}, {dims[0] / 3, dims[0]/3 + 1 + dims[0]/4}} {
			got, err := ra.ReadPlanes(nil, w[0], w[1])
			if err == nil {
				err = sameBits(got, want[w[0]*ps:w[1]*ps])
			}
			if err != nil {
				t.Fatalf("ReadPlanes%v disagrees with the strict decode: %v", w, err)
			}
		}
		if v, _ := core.SniffVersion(blob); v == 1 {
			return // a one-shot blob has no frames to scrub or recover
		}
		if serr != nil || !rep.Clean() {
			t.Fatalf("scrub of a decodable store: %v %+v", serr, rep)
		}
		rec, err := core.ScanRecovery(bytes.NewReader(blob), size)
		if err != nil || !rec.Sealed() {
			t.Fatalf("recovery scan of a decodable store: %v %+v", err, rec)
		}
	})
}
