package core

import "fmt"

// Classified implements dynamic instruction classification in the
// style of Rychlik et al. ("Efficient and Accurate Value Prediction
// Using Dynamic Classification", CMU TR 1998), the alternative design
// the paper's related-work section argues against: each static
// instruction is observed for a training window in which all
// component predictors run, then permanently assigned to the
// component that scored best (or marked unpredictable if none did).
// Afterwards only the assigned component is consulted and updated.
//
// The paper's critique, which the ablation experiment quantifies: the
// partitioning of storage between components is fixed at design time,
// while the DFCM shares one level-2 table among constant, stride and
// context patterns and so adapts the split dynamically.
type Classified struct {
	bits      uint
	window    uint8
	threshold uint8
	comps     []Predictor
	state     []classifyState
}

type classifyState struct {
	seen     uint8
	hits     [4]uint8
	assigned int8 // -1 training, -2 unpredictable, else component index
}

// NewClassified builds a classifying predictor over up to four
// components with a 2^bits classification table. Each instruction
// trains for window updates; it is assigned to the best component if
// that component scored at least threshold hits, otherwise marked
// unpredictable (predicting last value, never counted confident).
func NewClassified(bits uint, window, threshold uint8, comps ...Predictor) *Classified {
	checkBits("classification", bits, 30)
	if len(comps) == 0 || len(comps) > 4 {
		panic("core: classification needs 1..4 components")
	}
	if window == 0 || threshold > window {
		panic("core: bad classification window/threshold")
	}
	st := make([]classifyState, 1<<bits)
	for i := range st {
		st[i].assigned = -1
	}
	return &Classified{
		bits: bits, window: window, threshold: threshold,
		comps: comps, state: st,
	}
}

// Predict consults the assigned component; during training it uses
// the currently best-scoring one.
func (p *Classified) Predict(pc uint32) uint32 {
	s := &p.state[pcIndex(pc, p.bits)]
	switch {
	case s.assigned >= 0:
		return p.comps[s.assigned].Predict(pc)
	default:
		return p.comps[p.leader(s)].Predict(pc)
	}
}

func (p *Classified) leader(s *classifyState) int {
	best := 0
	for i := 1; i < len(p.comps); i++ {
		if s.hits[i] > s.hits[best] {
			best = i
		}
	}
	return best
}

// Update trains all components during the training window and scores
// them; after assignment only the chosen component is updated (the
// storage-isolation property of the scheme).
func (p *Classified) Update(pc, value uint32) {
	s := &p.state[pcIndex(pc, p.bits)]
	if s.assigned >= 0 {
		p.comps[s.assigned].Update(pc, value)
		return
	}
	if s.assigned == -2 {
		return // unpredictable: no component is spent on it
	}
	for i, c := range p.comps {
		if c.Predict(pc) == value {
			s.hits[i]++
		}
		c.Update(pc, value)
	}
	s.seen++
	if s.seen >= p.window {
		best := p.leader(s)
		if s.hits[best] >= p.threshold {
			s.assigned = int8(best)
		} else {
			s.assigned = -2
		}
	}
}

// Unpredictable returns the fraction of classified instructions that
// were marked unpredictable (Rychlik reports >50%, Lee 24%).
func (p *Classified) Unpredictable() float64 {
	var done, un int
	for i := range p.state {
		switch p.state[i].assigned {
		case -2:
			un++
			done++
		case -1:
		default:
			done++
		}
	}
	if done == 0 {
		return 0
	}
	return float64(un) / float64(done)
}

// Name implements Predictor.
func (p *Classified) Name() string {
	return fmt.Sprintf("classify2^%d/w%d", p.bits, p.window)
}

// SizeBits implements Predictor: components plus per-entry
// classification state (2 bits for the assignment; training counters
// are transient).
func (p *Classified) SizeBits() int64 {
	var s int64
	for _, c := range p.comps {
		s += c.SizeBits()
	}
	return s + int64(len(p.state))*2
}
