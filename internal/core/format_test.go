package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// TestContainerHeaderStable locks the on-disk header layout so format
// changes are deliberate (bump `version` when they are).
func TestContainerHeaderStable(t *testing.T) {
	data := []float32{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75}
	opts := HiTP()
	opts.AutoTune = false // keep the per-level configs deterministic
	blob, err := CompressCtx(nil, dev, data, []int{2, 2, 2}, 0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	// magic + version + predictor byte.
	if !bytes.Equal(blob[:4], []byte("cSZh")) {
		t.Fatalf("magic = %s", hex.EncodeToString(blob[:4]))
	}
	if blob[4] != 1 {
		t.Fatalf("version = %d", blob[4])
	}
	if Predictor(blob[5]) != PredInterp {
		t.Fatalf("predictor byte = %d", blob[5])
	}
	// ndims + dims varints.
	if blob[6] != 3 || blob[7] != 2 || blob[8] != 2 || blob[9] != 2 {
		t.Fatalf("dims header = % x", blob[6:10])
	}
	// eb as float64 LE.
	eb := math.Float64frombits(uint64(blob[10]) | uint64(blob[11])<<8 | uint64(blob[12])<<16 |
		uint64(blob[13])<<24 | uint64(blob[14])<<32 | uint64(blob[15])<<40 |
		uint64(blob[16])<<48 | uint64(blob[17])<<56)
	if eb != 0.01 {
		t.Fatalf("eb = %v", eb)
	}
	// pipeline + reorder flag.
	if Pipeline(blob[18]) != PipeHiTP || blob[19] != 1 {
		t.Fatalf("pipeline/reorder = %d %d", blob[18], blob[19])
	}
	// Round trip still works, of course.
	recon, dims, err := DecompressCtx(nil, dev, blob)
	if err != nil || len(recon) != 8 || dims[0] != 2 {
		t.Fatalf("round trip: %v", err)
	}
}

// TestCrossModeDecode verifies any mode's container decodes through the
// generic Decompress entry point without knowing the mode.
func TestCrossModeDecode(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i % 17)
	}
	for _, opts := range allModes() {
		blob, err := CompressCtx(nil, dev, data, []int{10, 10, 10}, 0.05, opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Name, err)
		}
		recon, _, err := DecompressCtx(nil, dev, blob)
		if err != nil {
			t.Fatalf("%s: %v", opts.Name, err)
		}
		for i := range data {
			if diff := float64(data[i]) - float64(recon[i]); diff > 0.05 || diff < -0.05 {
				t.Fatalf("%s: bound violated at %d", opts.Name, i)
			}
		}
	}
}
