package core

import (
	"errors"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
)

// TestUnsupportedVersionIsCorrupt pins the standing invariant that an
// unknown version byte surfaces as ErrCorrupt through errors.Is on both
// the decode and inspect paths — callers distinguish corruption from API
// misuse by unwrapping, so a bare fmt.Errorf here is a silent contract
// break.
func TestUnsupportedVersionIsCorrupt(t *testing.T) {
	f, err := datagen.Generate("miranda", []int{16, 16, 16}, 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := CompressCtx(nil, dev, f.Data, f.Dims, metrics.AbsEB(f.Data, 1e-3), HiCR())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[4] = 0xEE
	if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress: got %v, want ErrCorrupt", err)
	}
	if _, err := Inspect(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Inspect: got %v, want ErrCorrupt", err)
	}
}
