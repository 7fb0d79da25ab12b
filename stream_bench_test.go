package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// BenchmarkStreamChunked compares the one-shot (serial container) path
// with the chunked parallel path on a 256³ turbulence field. Sharding
// parallelizes the codec stages that a single-shot call runs serially
// (histogramming, Huffman tree construction, outlier serialization), so
// throughput scales with workers where the serial path plateaus.
//
//	go test -bench StreamChunked -benchtime 2x .
func BenchmarkStreamChunked(b *testing.B) {
	dims := []int{256, 256, 256}
	f, err := datagen.Generate("jhtdb", dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	absEB := metrics.AbsEB(f.Data, 1e-2)
	opts := core.HiTP()
	spec, err := core.ResolveEncodeSpec("hi-tp", "", 2) // plain v2 shards
	if err != nil {
		b.Fatal(err)
	}
	spec.EB = absEB

	b.Run("compress/serial", func(b *testing.B) {
		dev := gpusim.New(1)
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, err := core.CompressCtx(nil, dev, f.Data, f.Dims, absEB, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("compress/sharded-%dw", workers), func(b *testing.B) {
			dev := gpusim.New(workers)
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(dev, f.Data, f.Dims, 32, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	serialBlob, err := core.CompressCtx(nil, gpusim.New(0), f.Data, f.Dims, absEB, opts)
	if err != nil {
		b.Fatal(err)
	}
	chunkedBlob, err := core.CompressChunked(gpusim.New(0), f.Data, f.Dims, 32, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress/serial", func(b *testing.B) {
		dev := gpusim.New(1)
		b.SetBytes(int64(f.SizeBytes()))
		for i := 0; i < b.N; i++ {
			if _, _, err := core.DecompressCtx(nil, dev, serialBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("decompress/sharded-%dw", workers), func(b *testing.B) {
			dev := gpusim.New(workers)
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, _, err := core.DecompressCtx(nil, dev, chunkedBlob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadPlanesWindow compares an aligned 8-plane window inside a
// 32-plane hi-cr shard with a read of the whole shard through the same
// ReaderAt. Both read and entropy-decode the whole shard; the window
// reconstructs only the 16-plane interpolation block layer that owns its
// planes.
//
//	go test -run XXX -bench ReadPlanesWindow .
func BenchmarkReadPlanesWindow(b *testing.B) {
	dims := []int{64, 128, 128}
	f, err := datagen.Generate("miranda", dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := stream.CompressAbs(f.Data, dims, metrics.AbsEB(f.Data, 1e-3), stream.WithMode(cuszhi.ModeCR))
	if err != nil {
		b.Fatal(err)
	}
	ra, err := stream.OpenReaderAt(bytes.NewReader(blob), int64(len(blob)), stream.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name   string
		lo, hi int
	}{{"window-8", 40, 48}, {"shard-32", 32, 64}} {
		b.Run(w.name, func(b *testing.B) {
			b.SetBytes(int64((w.hi - w.lo) * dims[1] * dims[2] * 4))
			var dst []float32
			for i := 0; i < b.N; i++ {
				if dst, err = ra.ReadPlanes(dst, w.lo, w.hi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
