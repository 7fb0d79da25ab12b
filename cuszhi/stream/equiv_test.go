package stream

import (
	"bytes"
	"testing"

	"repro/cuszhi"
)

// TestInMemoryEqualsStreamed pins the two chunked drivers to one shard
// body: for every mode, the in-memory facade (cuszhi.WithChunkPlanes) must
// emit exactly the bytes a Writer streams for the same mode, chunk
// thickness and worker count — v4 for assemblies, v5 for backends and auto.
func TestInMemoryEqualsStreamed(t *testing.T) {
	dims := []int{18, 12, 12}
	data := mixedField(dims)
	eb := cuszhi.AbsEB(data, 1e-2)
	modes := append(append(cuszhi.Modes(), cuszhi.BackendModes()...), cuszhi.ModeAuto)
	for _, mode := range modes {
		for _, cp := range []int{6, 4} { // 6 divides dims[0], 4 leaves a short shard
			for _, workers := range []int{1, 3} {
				c, err := cuszhi.New(mode, cuszhi.WithChunkPlanes(cp), cuszhi.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				mem, err := c.CompressAbs(data, dims, eb)
				if err != nil {
					t.Fatalf("%s chunk=%d workers=%d: in-memory: %v", mode, cp, workers, err)
				}
				var buf bytes.Buffer
				w, err := NewWriter(&buf, dims, eb, WithMode(mode), WithChunkPlanes(cp), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteValues(data); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mem, buf.Bytes()) {
					t.Errorf("%s chunk=%d workers=%d: in-memory v%d (%d bytes) differs from streamed v%d (%d bytes)",
						mode, cp, workers, mem[4], len(mem), buf.Bytes()[4], buf.Len())
				}
			}
		}
	}
}

// TestCompressAbsHonorsWriterOptions: the one-shot helper is a Writer over
// a buffer, so it writes what a Writer writes and takes every Writer option
// — including the index and selection-policy options.
func TestCompressAbsHonorsWriterOptions(t *testing.T) {
	dims := []int{12, 8, 8}
	data, _ := genField(t, "nyx", dims)
	for _, tc := range []struct {
		opts []Option
		ver  byte
	}{
		{nil, 4},
		{[]Option{WithIndex(false)}, 2},
		{[]Option{WithIndex(false), WithRelativeEB()}, 3},
		{[]Option{WithAutoMode(), WithAutoPolicy("throughput")}, 5},
	} {
		blob, err := CompressAbs(data, dims, 0.1, append(tc.opts, WithChunkPlanes(4))...)
		if err != nil {
			t.Fatal(err)
		}
		if blob[4] != tc.ver {
			t.Errorf("%d options: version %d, want %d", len(tc.opts), blob[4], tc.ver)
		}
		if _, _, err := Decompress(blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CompressAbs(data, dims, 0.1, WithAutoMode(), WithAutoPolicy("bogus")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := CompressAbs(data, dims, 0.1, WithAutoPolicy("throughput")); err == nil {
		t.Fatal("WithAutoPolicy without auto mode accepted")
	}
}
