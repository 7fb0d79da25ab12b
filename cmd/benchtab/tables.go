package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bitcomp"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

var table4EBs = []float64{1e-2, 1e-3, 1e-4}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)+8))
	fmt.Printf("==  %s  ==\n", title)
	fmt.Println(strings.Repeat("=", len(title)+8))
}

// table1 reproduces Table 1: the Bitcomp-surrogate compression ratio on the
// compressed outputs of each compressor (Nyx, eb = 1e-2).
func table1(dev *gpusim.Device) error {
	header("Table 1: Bitcomp CR on compressed outputs (Nyx, eb=1e-2)")
	f, err := experiments.Dataset("nyx", *flagFull, *flagSeed)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s\n", "compressor", "Bitcomp~ CR")
	for _, c := range experiments.Table4Compressors() {
		blob, err := c.Compress(dev, f.Data, f.Dims, 1e-2)
		if err != nil {
			return err
		}
		r, err := bitcomp.Ratio(dev, blob)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %14.2f\n", c.Name, r)
	}
	fmt.Println("\n(paper: cuSZ-Hi ~1.0x — already de-redundated; cuSZ-I w/o Bitcomp ~9.6x)")
	return nil
}

// table4 reproduces Table 4: fixed-eb compression ratios across all
// datasets, error bounds and compressors.
func table4(dev *gpusim.Device) error {
	header("Table 4: compression ratio at fixed error bounds")
	comps := experiments.Table4Compressors()
	fmt.Printf("%-10s %6s", "dataset", "eb")
	for _, c := range comps {
		fmt.Printf(" %11s", c.Name)
	}
	fmt.Printf(" %9s\n", "Hi adv.")
	var csv strings.Builder
	csv.WriteString("dataset,eb")
	for _, c := range comps {
		csv.WriteString("," + c.Name)
	}
	csv.WriteString("\n")
	for _, ds := range datagen.PaperNames() {
		f, err := experiments.Dataset(ds, *flagFull, *flagSeed)
		if err != nil {
			return err
		}
		for _, eb := range table4EBs {
			fmt.Printf("%-10s %6.0e", ds, eb)
			csv.WriteString(fmt.Sprintf("%s,%g", ds, eb))
			var hiBest, blBest float64
			for i, c := range comps {
				r, err := experiments.Run(dev, c, f, eb)
				if err != nil {
					return err
				}
				fmt.Printf(" %11.1f", r.CR)
				csv.WriteString(fmt.Sprintf(",%.2f", r.CR))
				if i < 2 { // the two Hi modes
					if r.CR > hiBest {
						hiBest = r.CR
					}
				} else if r.CR > blBest {
					blBest = r.CR
				}
			}
			fmt.Printf(" %8.0f%%\n", (hiBest/blBest-1)*100)
			csv.WriteString("\n")
		}
	}
	fmt.Println("\n(paper: Hi best in almost all cases; adv. up to ~240% at eb=1e-2, smaller at 1e-4)")
	return writeArtifact("table4.csv", csv.String())
}

// table5 reproduces Table 5: the ablation of cuSZ-Hi design increments.
func table5(dev *gpusim.Device) error {
	header("Table 5: ablation study (CR per design increment)")
	variants := core.AblationVariants()
	fmt.Printf("%-10s %6s", "dataset", "eb")
	for _, v := range variants {
		fmt.Printf(" %18s", v.Name)
	}
	fmt.Println()
	for _, ds := range []string{"jhtdb", "miranda", "nyx", "rtm"} {
		f, err := experiments.Dataset(ds, *flagFull, *flagSeed)
		if err != nil {
			return err
		}
		for _, eb := range []float64{1e-2, 1e-3} {
			fmt.Printf("%-10s %6.0e", ds, eb)
			absEB := metrics.AbsEB(f.Data, eb)
			prev := 0.0
			for i, v := range variants {
				blob, err := core.CompressCtx(nil, dev, f.Data, f.Dims, absEB, v)
				if err != nil {
					return err
				}
				cr := metrics.CR(f.SizeBytes(), len(blob))
				if i == 0 {
					fmt.Printf(" %18.1f", cr)
				} else {
					fmt.Printf(" %9.1f (%+4.0f%%)", cr, (cr/prev-1)*100)
				}
				prev = cr
			}
			fmt.Println()
		}
	}
	fmt.Println("\n(paper: each increment adds ~6%..60%; full stack 1.7x..3.3x over cuSZ-IB)")
	return nil
}

// fig5 reproduces Figure 5: the quant-code value profile along the encoded
// sequence, natural layout vs level-order reordering (Miranda, eb=1e-3).
func fig5(dev *gpusim.Device) error {
	header("Fig 5: quant-code sequence, natural vs reordered (Miranda, eb=1e-3)")
	f, err := experiments.Dataset("miranda", *flagFull, *flagSeed)
	if err != nil {
		return err
	}
	natural, err := experiments.HiQuantCodes(dev, f, 1e-3, false)
	if err != nil {
		return err
	}
	reordered, err := experiments.HiQuantCodes(dev, f, 1e-3, true)
	if err != nil {
		return err
	}
	const bins = 32
	profile := func(codes []uint8) []int {
		out := make([]int, bins)
		for i, c := range codes {
			b := i * bins / len(codes)
			d := int(c) - 128
			if c == 0 {
				d = 128 // outlier escape: treat as max magnitude
			}
			if d < 0 {
				d = -d
			}
			if d > out[b] {
				out[b] = d
			}
		}
		return out
	}
	pn, pr := profile(natural), profile(reordered)
	fmt.Printf("%-6s %12s %12s\n", "bin", "natural max", "reordered max")
	var csv strings.Builder
	csv.WriteString("bin,natural,reordered\n")
	for b := 0; b < bins; b++ {
		fmt.Printf("%-6d %12d %12d\n", b, pn[b], pr[b])
		csv.WriteString(fmt.Sprintf("%d,%d,%d\n", b, pn[b], pr[b]))
	}
	fmt.Println("\n(paper: reordering concentrates the large codes at the head of the sequence)")
	return writeArtifact("fig5.csv", csv.String())
}

// fig6 reproduces Figure 6: compression ratio vs overall throughput of the
// lossless pipelines on cuSZ-Hi quantization codes (eb = 1e-3).
func fig6(dev *gpusim.Device) error {
	header("Fig 6: lossless pipelines on quant codes (eb=1e-3)")
	var csv strings.Builder
	csv.WriteString("dataset,codec,cr,enc_gibps,dec_gibps,overall_gibps\n")
	for _, ds := range []string{"hurricane", "nyx", "miranda", "scale"} {
		f, err := experiments.Dataset(ds, *flagFull, *flagSeed)
		if err != nil {
			return err
		}
		codes, err := experiments.HiQuantCodes(dev, f, 1e-3, true)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s (%d codes) ---\n", ds, len(codes))
		fmt.Printf("%-30s %8s %10s %10s %10s\n", "pipeline", "CR", "enc GiB/s", "dec GiB/s", "overall")
		for _, c := range experiments.Fig6Codecs() {
			t0 := time.Now()
			enc, err := c.Encode(dev, codes)
			encS := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			t1 := time.Now()
			dec, err := c.Decode(dev, enc)
			decS := time.Since(t1).Seconds()
			if err != nil || len(dec) != len(codes) {
				return fmt.Errorf("%s: decode failed: %v", c.Name, err)
			}
			cr := float64(len(codes)) / float64(len(enc))
			encT := metrics.GiBps(len(codes), encS)
			decT := metrics.GiBps(len(codes), decS)
			overall := metrics.GiBps(2*len(codes), encS+decS)
			fmt.Printf("%-30s %8.2f %10.2f %10.2f %10.2f\n", c.Name, cr, encT, decT, overall)
			csv.WriteString(fmt.Sprintf("%s,%s,%.3f,%.3f,%.3f,%.3f\n", ds, c.Name, cr, encT, decT, overall))
		}
	}
	fmt.Println("\n(paper: HF+RRE4-TCMS8-RZE1 on the CR frontier; TCMS1-BIT1-RRE1 fast with decent CR)")
	return writeArtifact("fig6.csv", csv.String())
}

func writeArtifact(name, content string) error {
	if *flagOut == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(*flagOut, name), []byte(content), 0o644)
}
