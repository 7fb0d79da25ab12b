package experiments

import (
	"repro/internal/ans"
	"repro/internal/bitcomp"
	"repro/internal/gpusim"
	"repro/internal/huffman"
	"repro/internal/lccodec"
	"repro/internal/lz"
	"repro/internal/ndzip"
)

// LosslessCodec is one entry of the Fig. 6 lossless benchmarking.
type LosslessCodec struct {
	Name   string
	Encode func(dev *gpusim.Device, src []byte) ([]byte, error)
	Decode func(dev *gpusim.Device, src []byte) ([]byte, error)
}

func pipelineCodec(spec string) LosslessCodec {
	p := lccodec.MustParse(spec)
	return LosslessCodec{
		Name: spec,
		Encode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return p.EncodeCtx(nil, dev, src)
		},
		Decode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return p.DecodeCtx(nil, dev, src)
		},
	}
}

func lzCodec(name string, v lz.Variant) LosslessCodec {
	return LosslessCodec{
		Name: name,
		Encode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return lz.EncodeCtx(nil, dev, src, v)
		},
		Decode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return lz.DecodeCtx(nil, dev, src, v)
		},
	}
}

// withHF prepends a Huffman stage to a codec (the "HF+X" variants of
// Fig. 6).
func withHF(c LosslessCodec) LosslessCodec {
	return LosslessCodec{
		Name: "HF+" + c.Name,
		Encode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			hf, err := huffman.EncodeBytesCtx(nil, dev, src, nil)
			if err != nil {
				return nil, err
			}
			return c.Encode(dev, hf)
		},
		Decode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			mid, err := c.Decode(dev, src)
			if err != nil {
				return nil, err
			}
			return huffman.DecodeBytesCtx(nil, dev, mid)
		},
	}
}

// Fig6Codecs returns the lossless pipelines benchmarked in Fig. 6 of the
// paper: LC-framework multi-stage pipelines, their Huffman-prefixed
// variants, and the open surrogates of the proprietary GPU codecs.
func Fig6Codecs() []LosslessCodec {
	ansCodec := LosslessCodec{
		Name: "nvANS~",
		Encode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return ans.Encode(src), nil
		},
		Decode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return ans.Decode(src)
		},
	}
	bitcompCodec := LosslessCodec{
		Name: "Bitcomp~",
		Encode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return bitcomp.CompressCtx(nil, dev, src)
		},
		Decode: func(dev *gpusim.Device, src []byte) ([]byte, error) {
			return bitcomp.DecompressCtx(nil, dev, src)
		},
	}
	ndzipCodec := LosslessCodec{
		Name:   "ndzip",
		Encode: ndzip.Encode,
		Decode: ndzip.Decode,
	}
	base := []LosslessCodec{
		pipelineCodec("HF"),
		pipelineCodec("RRE1"),
		pipelineCodec("RRE1-RRE2"),
		pipelineCodec("TCMS1-BIT1-RRE1"),
		pipelineCodec("RRE1-RZE1-DIFFMS1-CLOG1"),
		ansCodec,
		bitcompCodec,
		lzCodec("GDeflate~", lz.GDeflateLite),
		lzCodec("LZ4~", lz.LZ4Lite),
		lzCodec("Zstd~", lz.ZstdLite),
		lzCodec("GPULZ~", lz.GPULZLite),
		ndzipCodec,
	}
	hfVariants := []LosslessCodec{
		pipelineCodec("HF-RRE1"),
		pipelineCodec("HF-TUPLQ1-RRE1"),
		pipelineCodec("HF-RRE4-TCMS8-RZE1"),
		pipelineCodec("HF-TUPLD2-RRE2-TUPLQ1-RRE1"),
		withHF(ansCodec),
		withHF(bitcompCodec),
		withHF(lzCodec("GDeflate~", lz.GDeflateLite)),
		withHF(lzCodec("LZ4~", lz.LZ4Lite)),
		withHF(lzCodec("Zstd~", lz.ZstdLite)),
		withHF(lzCodec("GPULZ~", lz.GPULZLite)),
		withHF(ndzipCodec),
	}
	return append(base, hfVariants...)
}
