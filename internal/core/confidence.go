package core

import (
	"fmt"

	"repro/internal/hash"
	"repro/internal/trace"
)

// Confidence estimation
//
// A value predictor is only useful inside a processor together with a
// confidence estimator deciding when to act on a prediction. The
// paper's section 4.2 ends with a concrete design suggestion: "the
// design of a confidence estimator for a (D)FCM predictor should
// include tagging the level-2 table with some information to track
// hash-aliasing ... Some bits of a second hashing function, orthogonal
// to the main one, seems to be a good choice for the tag." This file
// implements that suggestion (HashTag) alongside the classical
// per-instruction saturating-counter estimator (CounterConfidence),
// so the two can be compared (experiment ext-confidence).

// ConfidentPredictor is a predictor that can also say whether it
// would act on its prediction.
type ConfidentPredictor interface {
	Predictor
	// PredictConfident returns the prediction and the confidence
	// signal for the instruction at pc.
	PredictConfident(pc uint32) (value uint32, confident bool)
}

// ConfidenceResult accumulates outcomes split by the confidence
// signal.
type ConfidenceResult struct {
	All       Result // every prediction
	Confident Result // predictions flagged confident
}

// Coverage is the fraction of predictions flagged confident.
func (r ConfidenceResult) Coverage() float64 {
	if r.All.Predictions == 0 {
		return 0
	}
	return float64(r.Confident.Predictions) / float64(r.All.Predictions)
}

// RunConfident drives p over t, scoring both the raw accuracy and
// the accuracy of confident predictions.
func RunConfident(p ConfidentPredictor, t trace.Trace) ConfidenceResult {
	var r ConfidenceResult
	for _, e := range t {
		pred, conf := p.PredictConfident(e.PC)
		correct := pred == e.Value
		r.All.Predictions++
		if correct {
			r.All.Correct++
		}
		if conf {
			r.Confident.Predictions++
			if correct {
				r.Confident.Correct++
			}
		}
		p.Update(e.PC, e.Value)
	}
	return r
}

// CounterConfidence gates any predictor with a per-instruction table
// of saturating counters: +1 when the underlying prediction was
// correct, reset to 0 when wrong (the common "reset" confidence
// scheme); confident while the counter is at or above the threshold.
type CounterConfidence struct {
	p         Predictor
	bits      uint
	counters  []uint8
	max       uint8
	threshold uint8
}

// NewCounterConfidence wraps p with 2^bits counters of the given
// ceiling and confidence threshold. It panics if threshold exceeds
// max or max is 0.
func NewCounterConfidence(p Predictor, bits uint, max, threshold uint8) *CounterConfidence {
	checkBits("confidence", bits, 30)
	if max == 0 || threshold > max {
		panic("core: bad confidence counter parameters")
	}
	return &CounterConfidence{
		p: p, bits: bits, counters: make([]uint8, 1<<bits),
		max: max, threshold: threshold,
	}
}

// PredictConfident implements ConfidentPredictor.
func (c *CounterConfidence) PredictConfident(pc uint32) (uint32, bool) {
	return c.p.Predict(pc), c.counters[pcIndex(pc, c.bits)] >= c.threshold
}

// Predict implements Predictor.
func (c *CounterConfidence) Predict(pc uint32) uint32 { return c.p.Predict(pc) }

// Update trains the counter with the outcome, then the predictor.
// Saturation is branch-free (satConf): a miss decrements by the full
// ceiling, which floors at 0 — exactly the "reset" scheme.
func (c *CounterConfidence) Update(pc, value uint32) {
	i := pcIndex(pc, c.bits)
	hit := hit01(c.p.Predict(pc), value)
	c.counters[i] = uint8(satConf(int32(c.counters[i]), hit, 1, int32(c.max), int32(c.max)))
	c.p.Update(pc, value)
}

// Name implements Predictor.
func (c *CounterConfidence) Name() string {
	return fmt.Sprintf("%s+ctr2^%d(t%d)", c.p.Name(), c.bits, c.threshold)
}

// SizeBits implements Predictor (counter width is bits needed for max).
func (c *CounterConfidence) SizeBits() int64 {
	w := int64(0)
	for m := c.max; m > 0; m >>= 1 {
		w++
	}
	return c.p.SizeBits() + int64(len(c.counters))*w
}

// HistoryFeeder is implemented by the two-level predictors and
// reports the datum that Update(pc, value) would append to the
// instruction's history: the value itself for the FCM, the stride
// (value − last) for the DFCM. Confidence tags must be built from the
// same stream the primary hash consumes.
type HistoryFeeder interface {
	L2Indexer
	// HistoryInput must be called before Update for the same event.
	HistoryInput(pc, value uint32) uint64
	// L1Entries returns the number of level-1 entries.
	L1Entries() int
	// L1Index returns the level-1 index for pc.
	L1Index(pc uint32) uint32
}

// HashTag implements the paper's suggested (D)FCM confidence
// estimator: every level-2 entry carries tagBits bits of a second
// hash of the complete history, computed with an FS R-k function
// orthogonal to the primary one (different shift). A prediction is
// confident when the stored tag matches the current history's tag —
// i.e. when it is unlikely that the entry was last written under a
// different (hash-aliased) history.
type HashTag struct {
	p       Predictor
	feeder  HistoryFeeder
	h2      *hash.FSR
	tagBits uint
	tagMask uint64
	hist    []uint64 // second-hash history per level-1 entry
	tags    []uint16 // stored tag per level-2 entry
	valid   []bool
}

// NewHashTag wraps a two-level predictor (FCM or DFCM) with hash-tag
// confidence. tagBits (1..16) bits of an FS R-shift second hash are
// stored per level-2 entry. Pick a shift different from the primary
// hash's (5) and below the level-2 index width, so the two functions
// are genuinely orthogonal — with shift >= index width the second
// hash degenerates to an order-1 function of the last input. It
// panics if p does not expose its history stream.
func NewHashTag(p Predictor, tagBits uint, shift uint) *HashTag {
	feeder, ok := p.(HistoryFeeder)
	if !ok {
		panic("core: hash-tag confidence requires a two-level predictor")
	}
	if tagBits == 0 || tagBits > 16 {
		panic("core: tag width out of range [1,16]")
	}
	n := uint(0)
	for e := feeder.L2Entries(); e > 1; e >>= 1 {
		n++
	}
	return &HashTag{
		p:       p,
		feeder:  feeder,
		h2:      hash.NewFSR(n, shift),
		tagBits: tagBits,
		tagMask: hash.Mask(tagBits),
		hist:    make([]uint64, feeder.L1Entries()),
		tags:    make([]uint16, feeder.L2Entries()),
		valid:   make([]bool, feeder.L2Entries()),
	}
}

func (h *HashTag) curTag(pc uint32) uint16 {
	return uint16(h.hist[h.feeder.L1Index(pc)] & h.tagMask)
}

// PredictConfident implements ConfidentPredictor.
func (h *HashTag) PredictConfident(pc uint32) (uint32, bool) {
	idx := h.feeder.L2Index(pc)
	return h.p.Predict(pc), h.valid[idx] && h.tags[idx] == h.curTag(pc)
}

// Predict implements Predictor.
func (h *HashTag) Predict(pc uint32) uint32 { return h.p.Predict(pc) }

// Update stores the current tag at the consulted entry, trains the
// predictor and advances the second-hash history.
func (h *HashTag) Update(pc, value uint32) {
	idx := h.feeder.L2Index(pc)
	h.tags[idx] = h.curTag(pc)
	h.valid[idx] = true
	input := h.feeder.HistoryInput(pc, value)
	h.p.Update(pc, value)
	i := h.feeder.L1Index(pc)
	h.hist[i] = h.h2.Update(h.hist[i], input)
}

// Name implements Predictor.
func (h *HashTag) Name() string {
	return fmt.Sprintf("%s+tag%d(%s)", h.p.Name(), h.tagBits, h.h2.Name())
}

// SizeBits implements Predictor: the second history per level-1 entry
// plus the tag per level-2 entry.
func (h *HashTag) SizeBits() int64 {
	return h.p.SizeBits() +
		int64(len(h.hist))*int64(h.h2.IndexBits()) +
		int64(len(h.tags))*int64(h.tagBits)
}

// Combined ANDs two confidence estimators over the same underlying
// predictor: confident only when both agree. The natural pairing is a
// HashTag (which vetoes hash-aliased lookups) with a CounterConfidence
// (which vetoes instructions with a poor track record); together they
// approach the counter's precision at better coverage than the
// counter alone on aliasing-dominated workloads.
//
// Both estimators must wrap the *same* predictor instance; Combined
// updates the shared predictor exactly once per event.
type Combined struct {
	p    Predictor
	tag  *HashTag
	ctr  *CounterConfidence
	name string
}

// NewCombined builds the AND of a hash-tag and a counter estimator
// over predictor p (which must be the predictor both wrap).
func NewCombined(p Predictor, tag *HashTag, ctr *CounterConfidence) *Combined {
	if tag.p != p || ctr.p != p {
		panic("core: combined estimators must wrap the same predictor")
	}
	return &Combined{p: p, tag: tag, ctr: ctr,
		name: fmt.Sprintf("%s+tag&ctr", p.Name())}
}

// PredictConfident implements ConfidentPredictor.
func (c *Combined) PredictConfident(pc uint32) (uint32, bool) {
	v, tagOK := c.tag.PredictConfident(pc)
	_, ctrOK := c.ctr.PredictConfident(pc)
	return v, tagOK && ctrOK
}

// Predict implements Predictor.
func (c *Combined) Predict(pc uint32) uint32 { return c.p.Predict(pc) }

// Update trains both estimators' metadata and the shared predictor
// once.
func (c *Combined) Update(pc, value uint32) {
	// Counter bookkeeping (reads the shared predictor pre-update);
	// same branch-free reset-on-miss saturation as CounterConfidence.
	i := pcIndex(pc, c.ctr.bits)
	hit := hit01(c.p.Predict(pc), value)
	c.ctr.counters[i] = uint8(satConf(int32(c.ctr.counters[i]), hit, 1, int32(c.ctr.max), int32(c.ctr.max)))
	// Tag bookkeeping updates the shared predictor itself.
	c.tag.Update(pc, value)
}

// Name implements Predictor.
func (c *Combined) Name() string { return c.name }

// SizeBits implements Predictor: the predictor plus both estimators'
// metadata (counted once each).
func (c *Combined) SizeBits() int64 {
	return c.tag.SizeBits() + (c.ctr.SizeBits() - c.p.SizeBits())
}
