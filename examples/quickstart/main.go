// Quickstart: build a DFCM value predictor through the public
// valuepred API, feed it a mixed value trace, and compare it against
// the classic baselines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/valuepred"
)

// loopTrace synthesizes an inner loop's value stream: constants
// (compare results, reloaded globals), strides (induction variables,
// addresses), a repeating context pattern (pointer chasing) and
// noise, one static instruction each.
func loopTrace(rounds int) valuepred.Trace {
	pattern := []uint32{9, 2, 25, 7, 1, 130, 4, 66}
	rng := uint32(88172645)
	var tr valuepred.Trace
	for i := 0; i < rounds; i++ {
		tr = append(tr,
			valuepred.Event{PC: 0x1000, Value: 7},                                    // constant
			valuepred.Event{PC: 0x1004, Value: uint32(i) * 4},                        // stride +4
			valuepred.Event{PC: 0x1008, Value: 0x100000 + uint32(i)*12},              // stride +12
			valuepred.Event{PC: 0x100c, Value: pattern[i%len(pattern)]},              // context
			valuepred.Event{PC: 0x1010, Value: pattern[(i*3+1)%len(pattern)] ^ 0x40}, // context
		)
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		tr = append(tr, valuepred.Event{PC: 0x1014, Value: rng & 0xffff}) // noise
	}
	return tr
}

func main() {
	tr := loopTrace(20_000)

	predictors := []valuepred.Predictor{
		valuepred.NewLastValue(10),
		valuepred.NewStride(10),
		valuepred.NewTwoDelta(10),
		valuepred.NewFCM(10, 12),
		valuepred.NewDFCM(10, 12),                  // the paper's contribution
		valuepred.NewTAGE(10, 10, 32, 4, 8, 4, 64), // tagged geometric history
	}

	fmt.Printf("%-26s %12s %10s\n", "predictor", "size(Kbit)", "accuracy")
	for _, p := range predictors {
		res := valuepred.Run(p, tr)
		fmt.Printf("%-26s %12.1f %10.4f\n",
			p.Name(), float64(p.SizeBits())/1024, res.Accuracy())
	}

	fmt.Println("\nThe DFCM matches the stride predictor on strides AND the")
	fmt.Println("FCM on repeating patterns — with one table serving both.")
}
