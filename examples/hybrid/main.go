// Hybrid comparison: reproduce the paper's section 4.3 argument on a
// real benchmark trace — a single DFCM is competitive with (and
// usually beats) a STRIDE+FCM hybrid even when that hybrid's
// meta-predictor is a perfect oracle.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/progs"
)

func main() {
	const budget = 2_000_000
	fmt.Printf("benchmark traces: %d instructions each\n\n", budget)
	fmt.Printf("%-10s %8s %8s %12s %13s\n",
		"benchmark", "FCM", "DFCM", "STRIDE+FCM", "STRIDE+DFCM")

	for _, name := range progs.SPECNames() {
		tr, err := progs.TraceFor(name, budget)
		if err != nil {
			log.Fatal(err)
		}
		// Each predictor runs once and records its per-event hits.
		hits := func(p core.Predictor) []uint64 {
			m := make([]uint64, core.HitWords(len(tr)))
			core.Hits(p, tr, m)
			return m
		}
		acc := func(masks ...[]uint64) float64 {
			return float64(core.UnionHits(masks...)) / float64(len(tr))
		}
		stride, fcm, dfcm := hits(core.NewStride(16)), hits(core.NewFCM(16, 12)), hits(core.NewDFCM(16, 12))
		// Perfect hybrids: correct when either component is correct,
		// so their hits are the union of the components' masks.
		sf, sd := acc(stride, fcm), acc(stride, dfcm)
		fmt.Printf("%-10s %8.4f %8.4f %12.4f %13.4f\n", name, acc(fcm), acc(dfcm), sf, sd)
	}

	fmt.Println("\nSTRIDE+DFCM barely improves on DFCM alone: the DFCM already")
	fmt.Println("captures nearly all stride patterns, so no meta-predictor is needed.")
}
