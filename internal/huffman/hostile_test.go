package huffman

import (
	"errors"
	"testing"

	"repro/internal/bitio"
)

// hostileHeader builds a container header with a valid 2-symbol code table
// and the given (possibly hostile) symbol/chunk/chunk-count fields.
func hostileHeader(nSyms, chunk, nChunks uint64) []byte {
	hdr := bitio.AppendUvarint(nil, 2)         // alphabet
	hdr = appendLengthsRLE(hdr, []uint8{1, 1}) // both symbols 1 bit
	hdr = bitio.AppendUvarint(hdr, nSyms)
	hdr = bitio.AppendUvarint(hdr, chunk)
	hdr = bitio.AppendUvarint(hdr, nChunks)
	return hdr
}

// TestDecodeHostileCounts pins the wire caps on the three header counts:
// 2^63-scale values used to wrap the chunk-count ceiling division and size
// the output slice, and a merely-huge symbol count is an allocation bomb
// the payload can never justify (each symbol costs >= 1 bit).
func TestDecodeHostileCounts(t *testing.T) {
	cases := []struct {
		name                  string
		nSyms, chunk, nChunks uint64
	}{
		{"nSyms 2^63", 1 << 63, 4096, 1},
		{"chunk 2^63", 4096, 1 << 63, 1},
		{"nChunks 2^63", 4096, 4096, 1 << 63},
		{"nSyms alloc bomb", 1 << 40, 1 << 40, 1},
	}
	for _, tc := range cases {
		blob := hostileHeader(tc.nSyms, tc.chunk, tc.nChunks)
		blob = bitio.AppendUvarint(blob, 1) // one declared chunk payload byte
		blob = append(blob, 0xFF)
		out, err := DecodeCtx(nil, dev, blob)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got (%d symbols, %v), want ErrCorrupt", tc.name, len(out), err)
		}
	}
}
