// Package trace defines the value-trace substrate shared by the
// simulator, the predictors and the experiment harness.
//
// A trace is a sequence of Events, each recording that the static
// instruction at PC produced the 32-bit integer register value Value.
// This mirrors the paper's methodology: traces are generated on the fly
// by a functional simulator (SimpleScalar sim-safe there, internal/vm
// here) filtered down to integer register-producing instructions,
// including loads and excluding branches and jumps.
//
// The package provides the in-memory Trace every replay takes
// (core.RunBatch, and core.Run, its per-event reference), a compact
// varint-encoded file format with optional compression, summary
// statistics, and Source, Func and Collect, which generate a trace one
// event at a time (internal/workload builds its synthetic workloads
// with them).
package trace

// Event is a single predicted instruction: the program counter of the
// static instruction and the integer register value it produced.
// Values are 32-bit, as on the paper's (MIPS) target; predictors widen
// them internally.
type Event struct {
	PC    uint32
	Value uint32
}

// Trace is an in-memory sequence of events.
type Trace []Event

// Source generates trace events one at a time. Next returns the next
// event and true, or a zero Event and false once the source is
// exhausted. Sources are single-use; Collect materializes one into a
// Trace.
type Source interface {
	Next() (Event, bool)
}

// Collect drains src into an in-memory Trace. If max > 0, at most max
// events are collected.
func Collect(src Source, max int) Trace {
	var t Trace
	for {
		e, ok := src.Next()
		if !ok {
			return t
		}
		t = append(t, e)
		if max > 0 && len(t) >= max {
			return t
		}
	}
}

// Func adapts a closure to a Source.
type Func func() (Event, bool)

// Next implements Source.
func (f Func) Next() (Event, bool) { return f() }
