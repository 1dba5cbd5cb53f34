package core

import (
	"repro/internal/hash"
	"repro/internal/trace"
)

// Concrete-type batch loops for the table predictors and for Delayed
// over an FCM or DFCM. The generic RunBatch pays two interface
// dispatches per event (Predict, Update) that the compiler cannot
// devirtualize or inline, and a method call per event reloads the
// table slice headers from the receiver. The loops here hoist the
// slices, an int mask and the FSR shift counts (hash.Shifts) out of
// the loop and call the same step helper Update calls, so each
// predictor has one update rule and the table indexing and the
// Fold32 history fold inline into one straight-line loop body.
// Delayed's fused kernel applies each due update and scores the next
// event in one such body, through the inner's fcmStep or dfcmStep.
// The top-level RunBatch dispatches here once per chunk via the
// BatchRunner interface; predictors without a loop here (the other
// wrappers, hybrids, LastN and TAGE, and Delayed over any other inner)
// run the generic loop, which gains nothing from a concrete receiver.
// TestRunBatchConcreteMatchesGeneric pins each loop to the generic
// one, so sweep replays (internal/engine) and served batches
// (internal/serve) stay equivalent to the sequential reference. The
// loops count hits only; per-event outcomes (Hits) take the generic
// loop, so serving never pays for a mask write.
//
// The int-typed mask derived from len(t) lets the compiler prove
// i <= len−1 and drop the bounds checks; the len-0 guard that makes
// the proof sound is dead code (constructors allocate ≥ 1 entry).

// RunBatch implements BatchRunner.
func (p *LastValue) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for _, e := range batch {
		res.Correct += uint64(lastValueStep(t, int(e.PC>>2)&mask, e.Value))
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *Stride) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	last, stride, conf := p.last, p.stride, p.conf
	if len(last) == 0 || len(stride) != len(last) || len(conf) != len(last) {
		return res
	}
	mask := len(last) - 1
	for _, e := range batch {
		res.Correct += uint64(strideStep(last, stride, conf, int(e.PC>>2)&mask, e.Value))
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *TwoDelta) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	last, s1, s2 := p.last, p.s1, p.s2
	if len(last) == 0 || len(s1) != len(last) || len(s2) != len(last) {
		return res
	}
	mask := len(last) - 1
	for _, e := range batch {
		res.Correct += uint64(twoDeltaStep(last, s1, s2, int(e.PC>>2)&mask, e.Value))
	}
	return res
}

// RunBatch implements BatchRunner. The fold choice is hoisted out of
// the loop: one flag check and one copy of the shift counts per chunk,
// then the inlined Fold32 per event.
func (p *FCM) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	l1, l2 := p.l1, p.l2
	if len(l1) == 0 {
		return res
	}
	mask := len(l1) - 1
	if p.fast {
		s := p.fold
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h, hit := fcmStep(l1, l2, i, e.Value)
			l1[i] = hash.Fold32(h, e.Value, s)
			res.Correct += uint64(hit)
		}
		return res
	}
	for _, e := range batch {
		i := int(e.PC>>2) & mask
		h, hit := fcmStep(l1, l2, i, e.Value)
		l1[i] = p.h.Update(h, uint64(e.Value))
		res.Correct += uint64(hit)
	}
	return res
}

// RunBatch implements BatchRunner. Level-1 is read as two flat SoA
// streams (last, hist); predict, truncate and sign-extension are all
// mask/shift arithmetic, so the loop body is branch-free on the FSR
// path.
func (p *DFCM) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	last, hist, l2 := p.last, p.hist, p.l2
	if len(last) == 0 || len(hist) != len(last) {
		return res
	}
	mask := len(last) - 1
	sMask, eShift := p.strideMask, p.extShift
	if p.fast {
		s := p.fold
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h, stride, hit := dfcmStep(last, hist, l2, i, e.Value, sMask, eShift)
			hist[i] = hash.Fold32(h, stride, s)
			res.Correct += uint64(hit)
		}
		return res
	}
	for _, e := range batch {
		i := int(e.PC>>2) & mask
		h, stride, hit := dfcmStep(last, hist, l2, i, e.Value, sMask, eShift)
		hist[i] = p.h.Update(h, uint64(stride))
		res.Correct += uint64(hit)
	}
	return res
}

// RunBatch implements BatchRunner. With an FCM or DFCM inner on the
// FSR fast path it runs the fused delayed-update kernel; any other
// inner takes the generic loop.
//
// The pending updates and the batch form one sequence S = ring ++
// batch. The reference (Predict, then Update, per event) applies
// updates until at most delay are pending, so event j is predicted
// right after S[j-lag-1] is applied, where lag = delay − n and n is the
// ring's length at entry (0 <= n <= delay+1). The first lag+1 events
// apply nothing; the next n apply the ring oldest-first; every later
// event j applies batch[j-delay-1]. Afterwards the ring holds exactly
// the reference's pending tail, so AppendState bytes match.
func (d *Delayed) RunBatch(batch []trace.Event) Result {
	var k delayedStepper
	switch p := d.p.(type) {
	case *FCM:
		if p.fast {
			k = p
		}
	case *DFCM:
		if p.fast {
			k = p
		}
	}
	if k == nil {
		return runEach(d, batch, nil)
	}
	res := Result{Predictions: uint64(len(batch))}
	// warm is the number of events predicted before the first due
	// update; lag >= -1, and lag+1 cannot overflow when lag < warm.
	warm := len(batch)
	if lag := d.delay - d.n; lag < warm {
		warm = lag + 1
	}
	for _, e := range batch[:warm] {
		res.Correct += uint64(hit01(d.p.Predict(e.PC), e.Value))
	}
	rest := batch[warm:]
	r := min(d.n, len(rest))        // ring entries applied
	a := min(r, len(d.ring)-d.head) // of which before the wrap
	res.Correct += k.delayedSteps(d.ring[d.head:d.head+a], rest[:a])
	res.Correct += k.delayedSteps(d.ring[:r-a], rest[a:r])
	rest = rest[r:]
	res.Correct += k.delayedSteps(batch[:len(rest)], rest)
	d.drop(r)
	d.pushAll(batch[len(rest):])
	return res
}

// delayedStepper is implemented by the inner predictors Delayed has a
// fused kernel for.
type delayedStepper interface {
	// delayedSteps applies the update upd[j], then predicts and scores
	// ev[j], for each j in order, and returns the number of hits.
	// len(upd) == len(ev).
	delayedSteps(upd, ev []trace.Event) uint64
}

// delayedSteps implements delayedStepper on the FSR fast path.
func (p *FCM) delayedSteps(upd, ev []trace.Event) uint64 {
	l1, l2 := p.l1, p.l2
	if len(l1) == 0 {
		return 0
	}
	mask := len(l1) - 1
	s := p.fold
	upd = upd[:len(ev)]
	var correct uint64
	for j, e := range ev {
		u := upd[j]
		i := int(u.PC>>2) & mask
		h, _ := fcmStep(l1, l2, i, u.Value)
		l1[i] = hash.Fold32(h, u.Value, s)
		correct += uint64(hit01(l2[l1[int(e.PC>>2)&mask]], e.Value))
	}
	return correct
}

// delayedSteps implements delayedStepper on the FSR fast path.
func (p *DFCM) delayedSteps(upd, ev []trace.Event) uint64 {
	last, hist, l2 := p.last, p.hist, p.l2
	if len(last) == 0 || len(hist) != len(last) {
		return 0
	}
	mask := len(last) - 1
	sMask, eShift, s := p.strideMask, p.extShift, p.fold
	upd = upd[:len(ev)]
	var correct uint64
	for j, e := range ev {
		u := upd[j]
		i := int(u.PC>>2) & mask
		h, stride, _ := dfcmStep(last, hist, l2, i, u.Value, sMask, eShift)
		hist[i] = hash.Fold32(h, stride, s)
		i = int(e.PC>>2) & mask
		correct += uint64(hit01(last[i]+signExtend(l2[hist[i]], eShift), e.Value))
	}
	return correct
}
