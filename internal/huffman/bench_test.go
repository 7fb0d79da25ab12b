package huffman

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

func quantLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(128 + rng.NormFloat64()*3)
	}
	return out
}

// skewedBytes is a zero-heavy code stream like hi-cr's level-ordered
// quantization codes: about 90% of the symbols are ZeroCode-like 128 and
// the rest spread around it, about 1.4 bits per symbol once coded.
func skewedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = 128
		if rng.Intn(10) == 0 {
			out[i] = byte(128 + rng.NormFloat64()*5)
		}
	}
	return out
}

func BenchmarkEncodeBytes(b *testing.B) {
	data := quantLike(1<<22, 1)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBytesCtx(nil, dev, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBytes(b *testing.B) {
	data := quantLike(1<<22, 2)
	enc, err := EncodeBytesCtx(nil, dev, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBytesCtx(nil, dev, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBytesSkewed measures the encode kernel on the zero-heavy
// stream of BenchmarkDecodeBytesSkewed, with the histogram supplied as
// hi-cr's quantizer supplies it, through a warm context, as in a shard
// worker.
func BenchmarkEncodeBytesSkewed(b *testing.B) {
	data := skewedBytes(1<<22, 3)
	freq := histogram(data, 256)
	ctx := arena.NewCtx()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := EncodeBytesCtx(ctx, dev, data, freq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBytesSkewed measures the byte kernel on a zero-heavy
// stream, where most table probes resolve a full run of codes: the regime
// of hi-cr's entropy decode. The context is warm, as in a shard worker.
func BenchmarkDecodeBytesSkewed(b *testing.B) {
	data := skewedBytes(1<<22, 3)
	enc, err := EncodeBytesCtx(nil, dev, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := arena.NewCtx()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := DecodeBytesCtx(ctx, dev, enc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*len(enc))/float64(len(data)), "bits/sym")
}

// BenchmarkDecodeSymbols measures multi-symbol decode throughput on the
// Lorenzo code alphabet (the cuSZ-L entropy-decode hot path): skewed
// 16-bit symbols, reused codec context.
func BenchmarkDecodeSymbols(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	syms := make([]uint16, 1<<22)
	for i := range syms {
		syms[i] = uint16(513 + int(rng.NormFloat64()*3))
	}
	enc, err := EncodeCtx(nil, dev, syms, 1026, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := arena.NewCtx()
	b.SetBytes(int64(2 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := DecodeCtx(ctx, dev, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSymbolsFused measures encode throughput when the
// histogram is supplied by the caller (the quantize+histogram fusion).
func BenchmarkEncodeSymbolsFused(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	syms := make([]uint16, 1<<22)
	freq := make([]int64, 1026)
	for i := range syms {
		s := uint16(513 + int(rng.NormFloat64()*3))
		syms[i] = s
		freq[s]++
	}
	ctx := arena.NewCtx()
	b.SetBytes(int64(2 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		if _, err := EncodeCtx(ctx, dev, syms, 1026, freq); err != nil {
			b.Fatal(err)
		}
	}
}
