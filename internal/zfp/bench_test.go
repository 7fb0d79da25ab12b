package zfp

import (
	"testing"
)

func BenchmarkCompressRate8(b *testing.B) {
	data := smoothField(96, 96, 96)
	dims := []int{96, 96, 96}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressRate(dev, data, dims, float64(8)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressRate8(b *testing.B) {
	data := smoothField(96, 96, 96)
	blob, err := CompressRate(dev, data, []int{96, 96, 96}, float64(8))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(dev, blob); err != nil {
			b.Fatal(err)
		}
	}
}
