package experiments

import (
	"bytes"
	"testing"

	"repro/internal/gpusim"
)

var dev = gpusim.New(4)

func TestRunAllFixedEBCompressors(t *testing.T) {
	f, err := Dataset("nyx", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Table4Compressors() {
		r, err := Run(dev, c, f, 1e-2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if r.CR <= 1 {
			t.Fatalf("%s: CR = %.2f", c.Name, r.CR)
		}
		if !r.BoundOK {
			t.Fatalf("%s: bound not OK", c.Name)
		}
		if r.CompGiBps <= 0 || r.DecGiBps <= 0 {
			t.Fatalf("%s: zero throughput", c.Name)
		}
	}
}

func TestRunZFP(t *testing.T) {
	f, err := Dataset("miranda", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(dev, CuZFP(8), f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed rate 8 => CR ~4.
	if r.CR < 3.5 || r.CR > 4.5 {
		t.Fatalf("cuZFP rate-8 CR = %.2f, want ~4", r.CR)
	}
	if r.PSNR < 40 {
		t.Fatalf("cuZFP PSNR = %.1f", r.PSNR)
	}
}

func TestDatasetCaching(t *testing.T) {
	a, err := Dataset("cesm", false, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Dataset("cesm", false, 7)
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("dataset not cached")
	}
	c, _ := Dataset("cesm", false, 8)
	if &a.Data[0] == &c.Data[0] {
		t.Fatal("different seeds must not share cache entries")
	}
	if _, err := Dataset("bogus", false, 1); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestHiQuantCodes(t *testing.T) {
	f, err := Dataset("miranda", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	natural, err := HiQuantCodes(dev, f, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := HiQuantCodes(dev, f, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(natural) != f.Len() || len(reordered) != f.Len() {
		t.Fatal("code stream length mismatch")
	}
	// Same multiset of codes, different order.
	var ha, hb [256]int
	for i := range natural {
		ha[natural[i]]++
		hb[reordered[i]]++
	}
	if ha != hb {
		t.Fatal("reordering changed the code histogram")
	}
}

func TestFig6CodecsRoundTrip(t *testing.T) {
	f, err := Dataset("nyx", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := HiQuantCodes(dev, f, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	codes = codes[:1<<16] // keep the test fast
	codecs := Fig6Codecs()
	if len(codecs) < 20 {
		t.Fatalf("only %d Fig. 6 codecs", len(codecs))
	}
	seen := map[string]bool{}
	for _, c := range codecs {
		if seen[c.Name] {
			t.Fatalf("duplicate codec %q", c.Name)
		}
		seen[c.Name] = true
		enc, err := c.Encode(dev, codes)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name, err)
		}
		dec, err := c.Decode(dev, enc)
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name, err)
		}
		if !bytes.Equal(dec, codes) {
			t.Fatalf("%s: round trip mismatch", c.Name)
		}
	}
}

func TestHiCRPipelineCompetitiveOnQuantCodes(t *testing.T) {
	// The selection rationale of §5.2.2: HF-RRE4-TCMS8-RZE1 should be at
	// or near the best compression ratio among the benchmarked pipelines.
	// At eb=1e-2 most codes are the zero code, so the Huffman output keeps
	// long runs — the regime where the reducing stages pay off (Table 1).
	f, err := Dataset("miranda", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := HiQuantCodes(dev, f, 1e-2, true)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, c := range Fig6Codecs() {
		enc, err := c.Encode(dev, codes)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sizes[c.Name] = len(enc)
	}
	hiCR := sizes["HF-RRE4-TCMS8-RZE1"]
	hfOnly := sizes["HF"]
	if hiCR >= hfOnly {
		t.Fatalf("HiCR pipeline (%d) should beat HF alone (%d)", hiCR, hfOnly)
	}
	best := hiCR
	for _, s := range sizes {
		if s < best {
			best = s
		}
	}
	if float64(hiCR) > float64(best)*1.35 {
		t.Fatalf("HiCR pipeline (%d) far from best (%d)", hiCR, best)
	}
}

func TestExtraCompressors(t *testing.T) {
	f, err := Dataset("miranda", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	extras := []Compressor{SZ3LikeEntry(), SZx()}
	if len(extras) != 2 {
		t.Fatalf("extras = %d", len(extras))
	}
	results := map[string]RunResult{}
	for _, c := range extras {
		r, err := Run(dev, c, f, 1e-2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		results[c.Name] = r
	}
	// Archetype signature: SZ3-like has the highest ratio, SZx the highest
	// throughput with the lowest ratio.
	hi, err := Run(dev, HiCR(), f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if results["SZ3-like"].CR < hi.CR*0.95 {
		t.Fatalf("SZ3-like CR %.1f should be >= Hi-CR %.1f", results["SZ3-like"].CR, hi.CR)
	}
	if results["SZx"].CR >= hi.CR {
		t.Fatalf("SZx CR %.1f should trail Hi-CR %.1f", results["SZx"].CR, hi.CR)
	}
}
