package interp

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

func benchField(dims []int) []float32 {
	return synthField(dims, 42)
}

func BenchmarkCompressHi(b *testing.B) {
	dims := []int{96, 96, 96}
	data := benchField(dims)
	g := NewGrid(dims)
	cfg := HiConfig()
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressCtx(nil, dev, data, g, cfg, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressHi(b *testing.B) {
	dims := []int{96, 96, 96}
	data := benchField(dims)
	g := NewGrid(dims)
	cfg := HiConfig()
	res, err := CompressCtx(nil, dev, data, g, cfg, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressCtx(nil, dev, res, g, cfg, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressCuszI(b *testing.B) {
	dims := []int{96, 96, 96}
	data := benchField(dims)
	g := NewGrid(dims)
	cfg := CuszIConfig()
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressCtx(nil, dev, data, g, cfg, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// shardBench is one 32×256×256 Miranda-like shard (the end-to-end
// benchmark's shard shape) compressed at a 1e-3 relative bound on a
// one-worker device with a warm context, so the numbers are per-core
// kernel throughput.
func shardBench(b *testing.B) ([]float32, Grid, Config, float64, *arena.Ctx, *gpusim.Device) {
	f, err := datagen.Generate("miranda", []int{32, 256, 256}, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := HiConfig()
	cfg.PerLevel = []LevelConfig{{Seq1DZYX, Linear}, {Seq1DZYX, Cubic}, {Seq1DZYX, Cubic}, {Seq1DZYX, Cubic}}
	b.SetBytes(int64(4 * len(f.Data)))
	return f.Data, NewGrid(f.Dims), cfg, metrics.AbsEB(f.Data, 1e-3), arena.NewCtx(), gpusim.New(1)
}

func BenchmarkShardCompress(b *testing.B) {
	data, g, cfg, eb, ctx, dev1 := shardBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := CompressCtx(ctx, dev1, data, g, cfg, eb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardDecompress(b *testing.B) {
	data, g, cfg, eb, ctx, dev1 := shardBench(b)
	res, err := CompressCtx(nil, dev1, data, g, cfg, eb)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := DecompressCtx(ctx, dev1, res, g, cfg, eb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardDecompressMD decodes shardBench's shard with MD+cubic at
// every level, so most of its points take dequantLattice's generic
// multi-term loop (face and body centres) rather than a one-term loop.
func BenchmarkShardDecompressMD(b *testing.B) {
	data, g, cfg, eb, ctx, dev1 := shardBench(b)
	cfg.PerLevel = uniformLevels(cfg.Levels(), LevelConfig{Scheme: MD, Spline: Cubic})
	res, err := CompressCtx(nil, dev1, data, g, cfg, eb)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := DecompressCtx(ctx, dev1, res, g, cfg, eb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoTune(b *testing.B) {
	dims := []int{96, 96, 96}
	data := benchField(dims)
	g := NewGrid(dims)
	cfg := HiConfig()
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AutoTune(dev, data, g, cfg, DefaultSampleFraction)
	}
}
