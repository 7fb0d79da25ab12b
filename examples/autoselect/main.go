// Autoselect: demonstrates the extension mechanisms built on top of the
// paper (its §7 future-work list): per-input compressor auto-selection
// (cuszhi.ModeAuto), per-chunk adaptive selection (stream.WithAutoMode,
// format v5), and LC-pipeline search over a data sample. A mixed workload
// — a smooth hydrodynamics field and a rough turbulence field — shows
// auto-selection adapting per input; a field whose character changes
// mid-volume shows it adapting per chunk.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/cuszhi"
	"repro/cuszhi/stream"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/lccodec"
	"repro/internal/metrics"
)

func main() {
	dev := gpusim.New(0)
	auto, err := cuszhi.New(cuszhi.ModeAuto)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== per-input auto-selection (ModeAuto) ==")
	fmt.Printf("%-10s %10s %10s\n", "field", "ratio", "PSNR")
	for _, name := range []string{"miranda", "jhtdb", "nyx"} {
		f, err := datagen.Generate(name, []int{48, 64, 64}, 1)
		if err != nil {
			log.Fatal(err)
		}
		blob, err := auto.Compress(f.Data, f.Dims, 1e-2)
		if err != nil {
			log.Fatal(err)
		}
		recon, _, err := auto.Decompress(blob)
		if err != nil {
			log.Fatal(err)
		}
		st := cuszhi.Evaluate(f.Data, blob, recon, metrics.AbsEB(f.Data, 1e-2))
		if !st.WithinEB {
			log.Fatalf("%s: bound violated", name)
		}
		fmt.Printf("%-10s %10.1f %10.1f\n", name, st.Ratio, st.PSNR)
	}

	fmt.Println("\n== per-chunk adaptive selection (stream.WithAutoMode, format v5) ==")
	// A field whose character flips mid-volume: smooth ramp planes, then
	// small-scale noise. One global mode must compromise; per-chunk
	// selection switches codecs where the data changes.
	dims := []int{64, 32, 32}
	ps := dims[1] * dims[2]
	mixed := make([]float32, dims[0]*ps)
	rng := rand.New(rand.NewSource(3))
	for z := 0; z < dims[0]; z++ {
		for i := 0; i < ps; i++ {
			if z < dims[0]/2 {
				mixed[z*ps+i] = float32(z)*0.5 + float32(i%dims[2])*0.125
			} else {
				mixed[z*ps+i] = float32(rng.NormFloat64() * 10)
			}
		}
	}
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, dims, cuszhi.AbsEB(mixed, 1e-3), stream.WithAutoMode(), stream.WithChunkPlanes(16))
	if err != nil {
		log.Fatal(err)
	}
	if err := w.WriteValues(mixed); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	info, err := cuszhi.Inspect(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(info.ChunkCodecs))
	for name := range info.ChunkCodecs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("format v%d, %d chunks, per-chunk codecs:\n", info.Version, info.NumChunks)
	for _, name := range names {
		fmt.Printf("  %-8s ×%d\n", name, info.ChunkCodecs[name])
	}

	fmt.Println("\n== LC pipeline search on a quant-code sample (<=2 stages) ==")
	f, err := datagen.Generate("nyx", []int{48, 64, 64}, 1)
	if err != nil {
		log.Fatal(err)
	}
	codes, err := experiments.HiQuantCodes(dev, f, 1e-3, true)
	if err != nil {
		log.Fatal(err)
	}
	results, err := lccodec.SearchCtx(nil, dev, codes[:1<<16], []string{"HF", "RRE1", "RZE1", "TCMS1", "BIT1"}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %8s %8s\n", "pipeline", "CR", "Pareto")
	for i, r := range results {
		if i >= 8 {
			break
		}
		fmt.Printf("%-20s %8.2f %8v\n", r.Spec, r.Ratio, r.Pareto)
	}
}
