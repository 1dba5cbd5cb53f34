// Package ilp implements the dataflow-limit study that motivates the
// paper's introduction: "The upper bound on achievable IPC is
// generally imposed by true register dependencies ... Value prediction
// is a technique capable of pushing this upper bound by predicting the
// outcome of an instruction and executing the dependent instructions
// earlier using the predicted value."
//
// The model is the classic idealized one (Lipasti & Shen, "Exceeding
// the dataflow limit via value prediction", MICRO 1996): unlimited
// fetch/issue width, perfect control prediction, unit latencies, and
// true register dependences only (memory dependences and structural
// hazards are ignored — documented in DESIGN.md). An instruction
// becomes ready one cycle after its latest input; the trace's ILP is
// instruction count divided by the dataflow height. Under value
// prediction, an instruction whose result was correctly predicted
// publishes its value at cycle zero, so dependents need not wait;
// mispredicted instructions behave as without prediction (an
// oracle-confidence model: mispredictions are never consumed).
package ilp

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Result summarizes one measurement.
type Result struct {
	// Instructions executed (all of them, not only predictable ones).
	Instructions uint64
	// Height is the dataflow critical path length in cycles.
	Height uint64
	// Predictable counts instructions under the value-prediction
	// filter; Correct counts those whose value the predictor got
	// right (0 when measuring the baseline).
	Predictable uint64
	Correct     uint64
}

// ILP returns instructions per cycle over the dataflow height.
func (r Result) ILP() float64 {
	if r.Height == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Height)
}

// Accuracy returns the predictor accuracy during the measurement.
func (r Result) Accuracy() float64 {
	if r.Predictable == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Predictable)
}

// Oracle is a sentinel predictor for Measure: every predictable
// instruction counts as correctly predicted (the dataflow limit with
// perfect value prediction).
var Oracle core.Predictor = oracle{}

type oracle struct{}

func (oracle) Predict(pc uint32) uint32 { return 0 }
func (oracle) Update(pc, value uint32)  {}
func (oracle) Name() string             { return "oracle" }
func (oracle) SizeBits() int64          { return 0 }

// Measure runs the program for budget instructions (0 = to
// completion) and computes the dataflow ILP with unbounded fetch
// bandwidth. pred selects the value predictor collapsing dependences:
// nil measures the plain dataflow limit, Oracle assumes perfect
// prediction, any other predictor is consulted and trained exactly as
// in the accuracy experiments.
func Measure(p *asm.Program, budget uint64, pred core.Predictor) (Result, error) {
	return MeasureWidth(p, budget, pred, 0)
}

// MeasureWidth is Measure with a finite fetch bandwidth: instruction
// number i cannot start before cycle i/width, the only resource limit
// in the model. With width 0 fetch is unbounded — under a perfect
// oracle the whole program then collapses to a constant height, so
// limit studies conventionally keep a (generous) width; the ext-ilp
// experiment uses 64.
func MeasureWidth(p *asm.Program, budget uint64, pred core.Predictor, width uint64) (Result, error) {
	var res Result
	// ready[r] is the cycle at which register r's current value is
	// available. Entry 34 slots cover $0..$31 plus HI/LO.
	var ready [isa.NumDataflowRegs]uint64

	c := vm.New(p, false)
	for !c.Halted() {
		if budget > 0 && c.Executed >= budget {
			break
		}
		pc := c.PC
		word := c.Mem.LoadWord(pc)
		d := isa.DecodeDeps(word)

		// Consult the predictor before executing (it sees the same
		// machine state the accuracy experiments do).
		var predicted uint32
		if pred != nil && d.Predictable {
			predicted = pred.Predict(pc)
		}

		if err := c.Step(); err != nil {
			if err == vm.ErrBudget {
				break
			}
			return res, err
		}
		res.Instructions++

		start := uint64(0)
		if width > 0 {
			start = (res.Instructions - 1) / width
		}
		if d.Src1 >= 0 && ready[d.Src1] > start {
			start = ready[d.Src1]
		}
		if d.Src2 >= 0 && ready[d.Src2] > start {
			start = ready[d.Src2]
		}
		done := start + 1
		if done > res.Height {
			res.Height = done
		}

		if d.Dest >= 0 {
			value := c.ReadDataflowReg(int(d.Dest))
			avail := done
			if pred != nil && d.Predictable {
				res.Predictable++
				correct := pred == Oracle || predicted == value
				if correct {
					res.Correct++
					avail = 0 // dependents use the predicted value
				}
				if pred != Oracle {
					pred.Update(pc, value)
				}
			}
			ready[d.Dest] = avail
			if d.Dest2 >= 0 {
				// The unpredicted second result (HI) of mult/div is
				// ready when the instruction completes.
				ready[d.Dest2] = done
			}
		}
	}
	return res, nil
}
