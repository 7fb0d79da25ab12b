package szp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bitio"
)

// hostileHeader builds a container declaring n elements with a valid error
// bound, ready for hostile outlier/chunk sections to be appended.
func hostileHeader(n uint64) []byte {
	blob := bitio.AppendUvarint(nil, n)
	return bitio.AppendUint64(blob, math.Float64bits(1.0))
}

// TestDecompressHostileWireCounts pins the wire caps on the container: the
// element count, outlier position deltas, and per-chunk payload lengths all
// come off the wire and each used to reach an int conversion (or a huge
// allocation) before any bound was applied.
func TestDecompressHostileWireCounts(t *testing.T) {
	// Element count past the absolute cap.
	blob := bitio.AppendUvarint(nil, 1<<63)
	if _, err := DecompressCtx(nil, dev, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("n 2^63: got %v, want ErrCorrupt", err)
	}

	// Outlier position delta past the cap: int(2^62) stays positive on
	// 64-bit but the capped check must reject it before the running
	// position absorbs it.
	blob = hostileHeader(32)
	blob = bitio.AppendUvarint(blob, 1)     // one outlier
	blob = bitio.AppendUvarint(blob, 1<<62) // hostile delta
	blob = append(blob, 0, 0, 0, 0)         // value bytes
	if _, err := DecompressCtx(nil, dev, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("outlier delta 2^62: got %v, want ErrCorrupt", err)
	}

	// Chunk payload length past the container size: a wrapped int length
	// used to slip the running total past the bounds check and panic the
	// payload slice expressions.
	blob = hostileHeader(32)
	blob = bitio.AppendUvarint(blob, 0)     // no outliers
	blob = bitio.AppendUvarint(blob, 1)     // one chunk (matches n=32)
	blob = bitio.AppendUvarint(blob, 1<<63) // hostile chunk length
	if _, err := DecompressCtx(nil, dev, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chunk len 2^63: got %v, want ErrCorrupt", err)
	}
}
