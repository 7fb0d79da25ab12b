package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/lccodec"
)

// lcsearch reruns the §5.2.2 pipeline-search methodology: enumerate LC
// component pipelines on a sample of cuSZ-Hi quantization codes and print
// the ratio/time Pareto frontier (the procedure that selected
// HF-RRE4-TCMS8-RZE1 and TCMS1-BIT1-RRE1 for the paper).
func lcsearch(dev *gpusim.Device) error {
	header("LC pipeline search on quant codes (Nyx, eb=1e-3, <=3 stages)")
	f, err := experiments.Dataset("nyx", *flagFull, *flagSeed)
	if err != nil {
		return err
	}
	codes, err := experiments.HiQuantCodes(dev, f, 1e-3, true)
	if err != nil {
		return err
	}
	sample := codes
	if len(sample) > 1<<18 {
		sample = sample[:1<<18]
	}
	results, err := lccodec.SearchCtx(nil, dev, sample, nil, 3)
	if err != nil {
		return err
	}
	fmt.Printf("%d pipelines evaluated; top 20 by ratio (* = Pareto):\n\n", len(results))
	fmt.Printf("%-34s %8s %10s\n", "pipeline", "CR", "ms")
	shown := 0
	for _, r := range results {
		if shown >= 20 {
			break
		}
		mark := " "
		if r.Pareto {
			mark = "*"
		}
		fmt.Printf("%-34s %8.2f %10.2f %s\n", r.Spec, r.Ratio, r.Seconds*1e3, mark)
		shown++
	}
	var frontier []string
	for _, r := range results {
		if r.Pareto {
			frontier = append(frontier, r.Spec)
		}
	}
	fmt.Printf("\nPareto frontier: %s\n", strings.Join(frontier, ", "))
	fmt.Println("(paper: the CR end of the frontier motivates HF+reducing-stage pipelines)")
	return nil
}
