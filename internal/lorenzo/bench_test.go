package lorenzo

import (
	"testing"
)

func BenchmarkCompress(b *testing.B) {
	dims := []int{96, 96, 96}
	data := smoothField(dims, 42)
	g := NewGrid(dims)
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressCtx(nil, dev, data, g, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	dims := []int{96, 96, 96}
	data := smoothField(dims, 42)
	g := NewGrid(dims)
	res, err := CompressCtx(nil, dev, data, g, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressCtx(nil, dev, res, g, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
