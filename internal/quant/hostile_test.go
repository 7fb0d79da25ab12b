package quant

import (
	"errors"
	"testing"

	"repro/internal/bitio"
)

// TestParseOutliersHostileCounts pins the wire caps on the outlier section:
// a 2^63-scale count must fail before sizing the backing arrays, and a
// 2^63-scale position delta must fail before the int conversion folds it
// into the running position as a negative number.
func TestParseOutliersHostileCounts(t *testing.T) {
	// Hostile count.
	blob := bitio.AppendUvarint(nil, 1<<63)
	if _, err := ParseOutliersInto(nil, &Outliers{}, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^63: got %v, want ErrCorrupt", err)
	}
	// Valid count, hostile delta.
	blob = bitio.AppendUvarint(nil, 1)
	blob = bitio.AppendUvarint(blob, 1<<63)
	blob = append(blob, 0, 0, 0, 0) // value bytes
	if _, err := ParseOutliersInto(nil, &Outliers{}, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("delta 2^63: got %v, want ErrCorrupt", err)
	}
}
