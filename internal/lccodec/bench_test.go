package lccodec

import (
	"math/rand"
	"testing"
)

func benchInput(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(12) == 0 {
			out[i] = byte(128 + rng.NormFloat64()*5)
		} else {
			out[i] = 128
		}
	}
	return out
}

func benchPipeline(b *testing.B, spec string) {
	data := benchInput(1 << 22)
	p := MustParse(spec)
	enc, err := p.EncodeCtx(nil, dev, data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := p.EncodeCtx(nil, dev, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := p.DecodeCtx(nil, dev, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHiCRPipeline(b *testing.B) { benchPipeline(b, "HF-RRE4-TCMS8-RZE1") }

func BenchmarkHiTPPipeline(b *testing.B) { benchPipeline(b, "TCMS1-BIT1-RRE1") }

func BenchmarkRRE1(b *testing.B) { benchPipeline(b, "RRE1") }

func BenchmarkBitShuffle(b *testing.B) { benchPipeline(b, "BIT1") }
