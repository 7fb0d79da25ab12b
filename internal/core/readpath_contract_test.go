package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/core"
)

// TestReadPathBoundContract is the read side of the bound contract. Each
// contract case is written by stream.Writer in 8-plane chunks under codec
// IDs 1–8 and auto mode (format v4 for the assemblies, v5 otherwise) and
// decoded four ways: the sequential Reader, ReaderAt over the whole field,
// a ReaderAt window straddling a chunk boundary, and a degraded ReaderAt.
// Every path keeps the contract (within the bound, NaN as NaN, ±Inf as
// the same infinity), all four return the same bits, and the degraded
// read of an undamaged store returns a nil error. A writer that refuses
// the input is the only other legal outcome.
func TestReadPathBoundContract(t *testing.T) {
	t.Parallel()
	const cp = 8
	dims := core.ContractDims
	ps := dims[1] * dims[2]
	lo, hi := cp-3, cp+5 // straddles the first chunk boundary
	modes := []string{string(cuszhi.ModeAuto)}
	for id := core.CodecHiCR; id <= core.CodecSZx; id++ {
		cd, ok := core.CodecByID(id)
		if !ok {
			t.Fatalf("codec id %d not registered", id)
		}
		modes = append(modes, cd.Name())
	}
	for _, tc := range core.ContractCases() {
		for _, mode := range modes {
			label := fmt.Sprintf("%s/%s eb %g", mode, tc.Name, tc.EB)
			opts := []stream.Option{stream.WithMode(cuszhi.Mode(mode)), stream.WithChunkPlanes(cp), stream.WithWorkers(2)}
			var buf bytes.Buffer
			w, err := stream.NewWriter(&buf, dims, tc.EB, opts...)
			if err == nil {
				if err = w.WriteValues(tc.Data); err == nil {
					err = w.Close()
				}
			}
			if err != nil {
				continue // refused
			}
			blob := buf.Bytes()
			r, err := stream.NewReader(bytes.NewReader(blob), opts...)
			if err != nil {
				t.Fatalf("%s: Reader open: %v", label, err)
			}
			seq, err := r.ReadAllValues()
			r.Close()
			if err != nil {
				t.Errorf("%s: Reader: nil-error write fails to decode: %v", label, err)
				continue
			}
			if err := core.CheckContract(tc.Data, seq, tc.EB); err != nil {
				t.Errorf("%s: Reader: %v", label, err)
			}
			for _, path := range []struct {
				name   string
				lo, hi int
				opt    stream.Option
			}{
				{"ReaderAt", 0, dims[0], stream.WithWorkers(2)},
				{"window", lo, hi, stream.WithWorkers(2)},
				{"degraded ReaderAt", 0, dims[0], stream.WithDegraded()},
			} {
				ra, err := stream.OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), path.opt)
				if err == nil {
					var got []float32
					if got, err = ra.ReadPlanes(nil, path.lo, path.hi); err == nil {
						err = sameBits(got, seq[path.lo*ps:path.hi*ps])
					}
				}
				if err != nil {
					t.Errorf("%s: %s%v: %v", label, path.name, [2]int{path.lo, path.hi}, err)
				}
			}
		}
	}
}

// sameBits reports the first value of got whose bits differ from want's.
func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("value %d is %v, the Reader decoded %v", i, got[i], want[i])
		}
	}
	return nil
}
