package bitcomp

import (
	"errors"
	"testing"

	"repro/internal/bitio"
)

// TestDecompressHostileDeclaredLength pins the wire-length cap on the
// header: lengths past the shared ceiling must fail as corrupt before any
// conversion, and a huge varint that consumes the whole container must not
// be mistaken for the empty stream.
func TestDecompressHostileDeclaredLength(t *testing.T) {
	for _, declared := range []uint64{1 << 63, uint64(bitio.MaxWireLen) + 1} {
		blob := bitio.AppendUvarint(nil, declared)
		blob = append(blob, modeRaw)
		out, err := DecompressCtx(nil, dev, blob)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("declared=%d: got (%d bytes, %v), want ErrCorrupt", declared, len(out), err)
		}
		// Header-only container (no mode byte): the huge declared length
		// must not take the "empty stream" success path.
		hdrOnly := bitio.AppendUvarint(nil, declared)
		if out, err := DecompressCtx(nil, dev, hdrOnly); err == nil {
			t.Fatalf("header-only declared=%d: got (%d bytes, nil), want error", declared, len(out))
		}
	}
}
