package core

import "repro/internal/trace"

// Concrete-type batch loops for the table predictors. The generic
// RunBatch pays two interface dispatches per event (Predict, Update)
// that the compiler cannot devirtualize or inline, and a method call
// per event reloads the table slice headers from the receiver. The
// loops here hoist the slices and an int mask out of the loop and call
// the same step helper Update calls, so each predictor has one update
// rule and the table indexing and FSR hash update inline into one
// straight-line loop body. The top-level RunBatch dispatches here once
// per chunk via the BatchRunner interface; predictors without a loop
// here (the wrappers, hybrids, LastN and TAGE) run the generic loop,
// which gains nothing from a concrete receiver.
// TestRunBatchConcreteMatchesGeneric pins each loop to the generic
// one, so chunked replays (internal/engine) and served batches
// (internal/serve) stay equivalent to the sequential reference.
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
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for _, e := range batch {
		res.Correct += uint64(strideStep(&t[int(e.PC>>2)&mask], e.Value))
	}
	return res
}

// RunBatch implements BatchRunner.
func (p *TwoDelta) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	t := p.table
	if len(t) == 0 {
		return res
	}
	mask := len(t) - 1
	for _, e := range batch {
		res.Correct += uint64(twoDeltaStep(&t[int(e.PC>>2)&mask], e.Value))
	}
	return res
}

// RunBatch implements BatchRunner. The FSR choice is hoisted out of
// the loop: one nil check per chunk, then the inlined Update32 per
// event.
func (p *FCM) RunBatch(batch []trace.Event) Result {
	res := Result{Predictions: uint64(len(batch))}
	l1, l2 := p.l1, p.l2
	if len(l1) == 0 {
		return res
	}
	mask := len(l1) - 1
	if fsr := p.fsr; fsr != nil {
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h, hit := fcmStep(l1, l2, i, e.Value)
			l1[i] = fsr.Update32(h, e.Value)
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
	if fsr := p.fsr; fsr != nil {
		for _, e := range batch {
			i := int(e.PC>>2) & mask
			h, stride, hit := dfcmStep(last, hist, l2, i, e.Value, sMask, eShift)
			hist[i] = fsr.Update32(h, stride)
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
