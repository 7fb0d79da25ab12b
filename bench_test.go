// Package repro's benchmarks regenerate every table and figure of the
// cuSZ-Hi paper as testing.B benchmarks (scaled-down datasets; run
// cmd/benchtab for the full printed tables):
//
//	BenchmarkTable1  Bitcomp CR on compressor outputs
//	BenchmarkTable4  fixed-eb compression ratio grid
//	BenchmarkTable5  ablation variants
//	BenchmarkFig5    level-order code reordering
//	BenchmarkFig6    lossless pipelines on quant codes
//	BenchmarkFig8    rate-distortion points
//	BenchmarkFig9    quality at matched CR
//	BenchmarkFig10   compression/decompression throughput
//
// Ratio-style results are attached as custom metrics (CR, PSNR_dB) so
// `go test -bench` output doubles as an experiment record.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bitcomp"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/quant"
)

var bdev = gpusim.New(0)

func mustDataset(b *testing.B, name string) *datagen.Field {
	b.Helper()
	f, err := experiments.Dataset(name, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkTable1 measures the Bitcomp-surrogate ratio on each compressor's
// output (Nyx, eb=1e-2).
func BenchmarkTable1(b *testing.B) {
	f := mustDataset(b, "nyx")
	for _, c := range experiments.Table4Compressors() {
		b.Run(c.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				blob, err := c.Compress(bdev, f.Data, f.Dims, 1e-2)
				if err != nil {
					b.Fatal(err)
				}
				ratio, err = bitcomp.Ratio(bdev, blob)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "BitcompCR")
		})
	}
}

// BenchmarkTable4 measures fixed-eb compression ratios (representative
// subset of the full grid; see `benchtab table4`).
func BenchmarkTable4(b *testing.B) {
	for _, ds := range []string{"nyx", "miranda"} {
		f := mustDataset(b, ds)
		for _, eb := range []float64{1e-2, 1e-3} {
			for _, c := range experiments.Table4Compressors() {
				b.Run(fmt.Sprintf("%s/eb=%.0e/%s", ds, eb, c.Name), func(b *testing.B) {
					b.SetBytes(int64(f.SizeBytes()))
					var cr float64
					for i := 0; i < b.N; i++ {
						blob, err := c.Compress(bdev, f.Data, f.Dims, eb)
						if err != nil {
							b.Fatal(err)
						}
						cr = metrics.CR(f.SizeBytes(), len(blob))
					}
					b.ReportMetric(cr, "CR")
				})
			}
		}
	}
}

// BenchmarkTable5 measures the ablation variants (Nyx, eb=1e-2).
func BenchmarkTable5(b *testing.B) {
	f := mustDataset(b, "nyx")
	absEB := metrics.AbsEB(f.Data, 1e-2)
	for _, v := range core.AblationVariants() {
		b.Run(v.Name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			var cr float64
			for i := 0; i < b.N; i++ {
				blob, err := core.CompressCtx(nil, bdev, f.Data, f.Dims, absEB, v)
				if err != nil {
					b.Fatal(err)
				}
				cr = metrics.CR(f.SizeBytes(), len(blob))
			}
			b.ReportMetric(cr, "CR")
		})
	}
}

// BenchmarkFig5 measures the Eq. 3 level-order reordering of quant codes
// (Miranda, eb=1e-3) and its effect on the TP pipeline size.
func BenchmarkFig5(b *testing.B) {
	f := mustDataset(b, "miranda")
	codes, err := experiments.HiQuantCodes(bdev, f, 1e-3, false)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint8, len(codes))
	b.Run("reorder", func(b *testing.B) {
		b.SetBytes(int64(len(codes)))
		for i := 0; i < b.N; i++ {
			quant.Gather(bdev, f.Dims, 16, codes, dst)
		}
	})
	b.Run("invert", func(b *testing.B) {
		b.SetBytes(int64(len(codes)))
		for i := 0; i < b.N; i++ {
			quant.Scatter(bdev, f.Dims, 16, dst, codes)
		}
	})
}

// BenchmarkFig6 measures the lossless pipelines on cuSZ-Hi quant codes
// (Nyx, eb=1e-3), reporting CR; ns/op gives the throughput axis.
func BenchmarkFig6(b *testing.B) {
	f := mustDataset(b, "nyx")
	codes, err := experiments.HiQuantCodes(bdev, f, 1e-3, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range experiments.Fig6Codecs() {
		b.Run(c.Name, func(b *testing.B) {
			b.SetBytes(int64(len(codes)))
			var cr float64
			for i := 0; i < b.N; i++ {
				enc, err := c.Encode(bdev, codes)
				if err != nil {
					b.Fatal(err)
				}
				dec, err := c.Decode(bdev, enc)
				if err != nil || len(dec) != len(codes) {
					b.Fatalf("decode failed: %v", err)
				}
				cr = float64(len(codes)) / float64(len(enc))
			}
			b.ReportMetric(cr, "CR")
		})
	}
}

// BenchmarkFig8 measures representative rate-distortion points.
func BenchmarkFig8(b *testing.B) {
	f := mustDataset(b, "miranda")
	comps := append(experiments.Table4Compressors(), experiments.CuZFP(8))
	for _, c := range comps {
		b.Run(c.Name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			var r experiments.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = experiments.Run(bdev, c, f, 1e-3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.BitRate, "bits/val")
			b.ReportMetric(r.PSNR, "PSNR_dB")
		})
	}
}

// BenchmarkFig9 measures quality at a matched compression ratio: cuSZ-Hi-CR
// vs cuSZ-IB on JHTDB.
func BenchmarkFig9(b *testing.B) {
	f := mustDataset(b, "jhtdb")
	cases := []struct {
		c  experiments.Compressor
		eb float64
	}{
		{experiments.HiCR(), 1e-2},
		{experiments.CuszIB(), 3e-2}, // lands near the same CR
	}
	for _, tc := range cases {
		b.Run(tc.c.Name, func(b *testing.B) {
			var r experiments.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = experiments.Run(bdev, tc.c, f, tc.eb)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CR, "CR")
			b.ReportMetric(r.PSNR, "PSNR_dB")
		})
	}
}

// BenchmarkFig10 measures compression and decompression throughput
// separately for every compressor (JHTDB, eb=1e-2). bytes/s is the Fig. 10
// axis.
func BenchmarkFig10(b *testing.B) {
	f := mustDataset(b, "jhtdb")
	comps := append(experiments.Table4Compressors(), experiments.CuZFP(8))
	for _, c := range comps {
		blob, err := c.Compress(bdev, f.Data, f.Dims, 1e-2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("comp/"+c.Name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(bdev, f.Data, f.Dims, 1e-2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decomp/"+c.Name, func(b *testing.B) {
			b.SetBytes(int64(f.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompress(bdev, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
