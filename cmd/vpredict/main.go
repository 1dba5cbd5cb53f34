// Command vpredict runs one value predictor configuration over a
// trace (from a VTR1 file or generated from a benchmark) and reports
// its accuracy and size.
//
// Usage:
//
//	vpredict -bench li -predictor dfcm -l1 16 -l2 12
//	vpredict -trace li.vtr -predictor stride -l1 14
//	vpredict -bench ijpeg -predictor dfcm -l1 16 -l2 12 -width 8 -delay 64
//	vpredict -bench li -predictor tage -l1 13 -l2 10 -tables 4 -tag 8 -hmin 4 -hmax 64
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "VTR1 trace file to replay")
	bench := flag.String("bench", "", "benchmark to trace on the fly")
	budget := flag.Uint64("budget", 1_000_000, "instruction budget when tracing a benchmark")
	// The predictor flags are core.Spec's, the vocabulary cmd/vpserve
	// declares too, so an offline run with these flags reproduces a
	// served session's hit counts.
	var spec core.Spec
	spec.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tr, err := loadTrace(*traceFile, *bench, *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(1)
	}
	p, err := spec.New()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(2)
	}

	res := core.RunBatch(p, tr)
	fmt.Printf("predictor:   %s\n", p.Name())
	fmt.Printf("size:        %d bits (%.1f Kbit)\n", p.SizeBits(), float64(p.SizeBits())/1024)
	fmt.Printf("predictions: %d\n", res.Predictions)
	fmt.Printf("correct:     %d\n", res.Correct)
	fmt.Printf("accuracy:    %.4f\n", res.Accuracy())
}

func loadTrace(file, bench string, budget uint64) (trace.Trace, error) {
	switch {
	case file != "" && bench != "":
		return nil, fmt.Errorf("give either -trace or -bench, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadAuto(f)
	case bench != "":
		return progs.TraceFor(bench, budget)
	default:
		return nil, fmt.Errorf("one of -trace or -bench is required")
	}
}
