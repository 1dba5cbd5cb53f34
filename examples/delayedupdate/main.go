// Delayed update: the paper's section 4.5 effect on a custom
// workload. In a real pipeline the predictor's tables are updated
// only when an instruction's outcome is known — dozens to hundreds of
// predictions later. Instructions that recur within that window
// predict from stale history.
//
//	go run ./examples/delayedupdate
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// A tight loop (8 instructions) and a wide loop (80 instructions):
	// the tight loop recurs well within any realistic delay window,
	// the wide one mostly outside it.
	tight := workload.LoopBody(0x1000, 1, 4, 2, 1)
	wide := workload.LoopBody(0x4000, 10, 40, 20, 10)

	fmt.Printf("%-8s %18s %18s\n", "delay", "tight loop (8 ins)", "wide loop (80 ins)")
	for _, delay := range []int{0, 16, 32, 64, 128, 256, 512} {
		accT := core.RunBatch(
			core.NewDelayed(core.NewDFCM(12, 12), delay),
			trace.Collect(workload.Interleave(tight, 20_000), 0),
		).Accuracy()
		accW := core.RunBatch(
			core.NewDelayed(core.NewDFCM(12, 12), delay),
			trace.Collect(workload.Interleave(wide, 2_000), 0),
		).Accuracy()
		fmt.Printf("%-8d %18.4f %18.4f\n", delay, accT, accW)
	}

	fmt.Println("\nThe tight loop collapses once the delay spans several iterations;")
	fmt.Println("the wide loop only degrades when the delay window covers its body.")
}
