package cuszhi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// roundTripDatasets is the field subset the cross-mode harness sweeps.
// Tiny dims keep modes × fields × bounds × paths affordable while still
// covering the qualitative regimes: smooth (miranda), clumpy heavy-tailed
// (nyx), turbulent (jhtdb).
var roundTripDatasets = []struct {
	name string
	dims []int
}{
	{"miranda", []int{16, 20, 20}},
	{"nyx", []int{16, 16, 16}},
	{"jhtdb", []int{12, 18, 18}},
}

// TestRoundTripEveryMode is the cross-cutting property harness: every
// fixed-assembly mode × every dataset × several error bounds must round
// trip within the absolute bound with exact dims — through the one-shot
// v1 path and the chunked v4 path, in both mixed directions (v4 blobs are
// decoded by the same Decompress that reads v1).
func TestRoundTripEveryMode(t *testing.T) {
	for _, ds := range roundTripDatasets {
		data, dims, err := GenerateDataset(ds.name, ds.dims, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range Modes() {
			for _, relEB := range []float64{1e-1, 1e-2, 1e-3} {
				t.Run(fmt.Sprintf("%s/%s/eb=%g", ds.name, mode, relEB), func(t *testing.T) {
					absEB := AbsEB(data, relEB)
					oneShot, err := New(mode, WithWorkers(3))
					if err != nil {
						t.Fatal(err)
					}
					chunked, err := New(mode, WithWorkers(3), WithChunkPlanes(5))
					if err != nil {
						t.Fatal(err)
					}
					v1, err := oneShot.CompressAbs(data, dims, absEB)
					if err != nil {
						t.Fatalf("v1 compress: %v", err)
					}
					v4, err := chunked.CompressAbs(data, dims, absEB)
					if err != nil {
						t.Fatalf("v4 compress: %v", err)
					}
					if len(v4) < 6 || v4[4] != 4 {
						t.Fatalf("chunked path produced version %d", v4[4])
					}
					// Either container decodes through either Compressor:
					// the format is self-describing.
					for tag, blob := range map[string][]byte{"v1": v1, "v4": v4} {
						for dtag, dec := range map[string]*Compressor{"one-shot": oneShot, "chunked": chunked} {
							recon, gotDims, err := dec.Decompress(blob)
							if err != nil {
								t.Fatalf("%s via %s: %v", tag, dtag, err)
							}
							if len(gotDims) != len(dims) {
								t.Fatalf("%s via %s: dims %v != %v", tag, dtag, gotDims, dims)
							}
							for i := range dims {
								if gotDims[i] != dims[i] {
									t.Fatalf("%s via %s: dims %v != %v", tag, dtag, gotDims, dims)
								}
							}
							st := Evaluate(data, blob, recon, absEB)
							if !st.WithinEB {
								t.Fatalf("%s via %s: max err %g exceeds bound %g",
									tag, dtag, st.MaxErr, absEB)
							}
						}
					}
				})
			}
		}
	}
}

// TestRoundTripRandomShapes quick-checks the chunked path on randomized
// dims, chunk thicknesses and bounds: reconstruction must stay within
// bound for arbitrary (small) shapes, including those where the last
// shard is short or the field is thinner than one chunk.
func TestRoundTripRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		total := 1
		for i := range dims {
			dims[i] = 3 + rng.Intn(14)
			total *= dims[i]
		}
		data := make([]float32, total)
		for i := range data {
			data[i] = float32(rng.NormFloat64()) + float32(i%13)
		}
		absEB := 0.001 + rng.Float64()*0.2
		chunk := 1 + rng.Intn(dims[0]+2) // may exceed dims[0]: single shard
		mode := Modes()[rng.Intn(len(Modes()))]
		c, err := New(mode, WithChunkPlanes(chunk))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.CompressAbs(data, dims, absEB)
		if err != nil {
			t.Fatalf("trial %d (%v, mode %s, chunk %d): %v", trial, dims, mode, chunk, err)
		}
		recon, gotDims, err := Decompress(blob)
		if err != nil {
			t.Fatalf("trial %d (%v, mode %s, chunk %d): %v", trial, dims, mode, chunk, err)
		}
		if len(recon) != total || len(gotDims) != nd {
			t.Fatalf("trial %d: got %d values, dims %v", trial, len(recon), gotDims)
		}
		if !metrics.WithinBound(data, recon, absEB) {
			t.Fatalf("trial %d (%v, mode %s, chunk %d, eb %g): bound violated",
				trial, dims, mode, chunk, absEB)
		}
	}
}

// TestAutoModeChunked covers ModeAuto on the chunked path: auto-selection
// runs on the whole field, then shards are compressed with the winner.
func TestAutoModeChunked(t *testing.T) {
	data, dims, err := GenerateDataset("nyx", []int{12, 12, 12}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ModeAuto, WithChunkPlanes(4))
	if err != nil {
		t.Fatal(err)
	}
	absEB := AbsEB(data, 1e-2)
	blob, err := c.CompressAbs(data, dims, absEB)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.WithinBound(data, recon, absEB) {
		t.Fatal("auto chunked round trip out of bound")
	}
}

// TestV1GoldenBlobStillDecodes locks backward compatibility: a serialized
// v1 container checked in as a golden vector must keep decoding bit-for-
// bit as the format evolves.
func TestV1GoldenBlobStillDecodes(t *testing.T) {
	c, err := New(ModeTP)
	if err != nil {
		t.Fatal(err)
	}
	data := []float32{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75}
	blob, err := c.CompressAbs(data, []int{2, 2, 2}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob[:6], []byte{'c', 'S', 'Z', 'h', 1, 0}) {
		t.Fatalf("v1 prefix = % x", blob[:6])
	}
	recon, dims, err := Decompress(blob)
	if err != nil || len(recon) != 8 || dims[0] != 2 {
		t.Fatalf("v1 decode: %v (dims %v)", err, dims)
	}
	for i := range data {
		d := float64(data[i]) - float64(recon[i])
		if d > 0.01 || d < -0.01 {
			t.Fatalf("value %d drifted: %v vs %v", i, data[i], recon[i])
		}
	}
}
