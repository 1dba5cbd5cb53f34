package metrics

import "repro/internal/trace"

// Predictability computes the idealized predictability ceilings of a
// value trace in the sense of Sazeides & Smith ("The Predictability
// of Data Values", MICRO 1997) — the analysis the DFCM paper builds
// on. Each model is evaluated with unbounded, collision-free tables,
// so the numbers are upper bounds on what any finite predictor of
// that family can achieve:
//
//	Constant — next value equals the previous one (LVP ceiling)
//	Stride   — next value continues the last stride (stride ceiling)
//	Context  — next value is determined by the exact last-k values
//	           (FCM ceiling at order k)
//	DContext — next stride is determined by the exact last-k strides
//	           (DFCM ceiling at order k)
type Predictability struct {
	Events   uint64
	Constant float64
	Stride   float64
	Context  float64
	DContext float64
	Order    int
}

// ctxKey is an exact (not hashed) order-k history.
type ctxKey [4]uint32

type predictState struct {
	last     uint32
	stride   uint32
	seen     bool
	vhist    ctxKey
	shist    ctxKey
	depth    int
	vnext    map[ctxKey]uint32
	snext    map[ctxKey]uint32
	vcorrect uint64
	scorrect uint64
}

// MeasurePredictability runs the four oracles at the given history
// order (1..4) over the trace.
func MeasurePredictability(t trace.Trace, order int) Predictability {
	if order < 1 || order > 4 {
		panic("metrics: predictability order out of range [1,4]")
	}
	per := make(map[uint32]*predictState)
	var p Predictability
	p.Order = order
	var constant, stride, context, dcontext uint64
	push := func(k *ctxKey, v uint32) {
		copy(k[:order], k[1:order])
		k[order-1] = v
	}
	p.Events = uint64(len(t))
	for _, e := range t {
		s := per[e.PC]
		if s == nil {
			s = &predictState{
				vnext: make(map[ctxKey]uint32),
				snext: make(map[ctxKey]uint32),
			}
			per[e.PC] = s
		}
		if s.seen {
			if e.Value == s.last {
				constant++
			}
			if e.Value == s.last+s.stride {
				stride++
			}
		}
		newStride := e.Value - s.last
		// The value history is complete after `order` events, the
		// stride history one event later (the first event produces no
		// stride).
		if s.depth >= order {
			if v, ok := s.vnext[s.vhist]; ok && v == e.Value {
				context++
			}
			s.vnext[s.vhist] = e.Value
		}
		if s.depth >= order+1 {
			if d, ok := s.snext[s.shist]; ok && d == newStride {
				dcontext++
			}
			s.snext[s.shist] = newStride
		}
		push(&s.vhist, e.Value)
		if s.seen {
			push(&s.shist, newStride)
		}
		if s.depth <= order+1 {
			s.depth++
		}
		s.stride = newStride
		s.last = e.Value
		s.seen = true
	}
	if p.Events > 0 {
		n := float64(p.Events)
		p.Constant = float64(constant) / n
		p.Stride = float64(stride) / n
		p.Context = float64(context) / n
		p.DContext = float64(dcontext) / n
	}
	return p
}

// Ceiling returns the best of the four model ceilings.
func (p Predictability) Ceiling() float64 {
	best := p.Constant
	for _, v := range []float64{p.Stride, p.Context, p.DContext} {
		if v > best {
			best = v
		}
	}
	return best
}
