package metrics

import (
	"sort"

	"repro/internal/core"
	"repro/internal/trace"
)

// StrideHist measures how the level-2 table of a two-level predictor
// is occupied by stride patterns, reproducing the instrumentation of
// the paper's Figures 6 and 9: a side stride predictor acts as the
// oracle for "this value is part of a stride pattern" ("we used the
// simple indication that a value is part of a stride pattern if a
// stride predictor can correctly predict it"); every time the
// two-level predictor is consulted for such a value, the counter of
// the level-2 entry it accesses is incremented.
type StrideHist struct {
	counts []uint64
	oracle *core.Stride
}

// NewStrideHist creates the instrumentation for a predictor with the
// given number of level-2 entries, using a stride-predictor oracle
// with 2^oracleBits entries (the paper uses 64K).
func NewStrideHist(l2Entries int, oracleBits uint) *StrideHist {
	return &StrideHist{
		counts: make([]uint64, l2Entries),
		oracle: core.NewStride(oracleBits),
	}
}

// Observe processes one event: if the oracle stride predictor gets it
// right, the level-2 entry the predictor would access is charged.
// The caller remains responsible for updating the predictor itself;
// Observe updates only the oracle.
func (h *StrideHist) Observe(p core.L2Indexer, e trace.Event) {
	if h.oracle.Predict(e.PC) == e.Value {
		h.counts[p.L2Index(e.PC)]++
	}
	h.oracle.Update(e.PC, e.Value)
}

// Run drives predictor p over the whole trace with instrumentation
// and returns the sorted histogram. p must implement core.Predictor
// to be updated.
func (h *StrideHist) Run(p core.Predictor, t trace.Trace) Histogram {
	idx, ok := p.(core.L2Indexer)
	if !ok {
		panic("metrics: predictor does not expose its level-2 index")
	}
	for _, e := range t {
		h.Observe(idx, e)
		p.Predict(e.PC) // keep prediction path exercised
		p.Update(e.PC, e.Value)
	}
	return h.Histogram()
}

// StrideHits replays tr through a fresh 2^oracleBits-entry stride
// predictor and returns its hit mask (core.Hits): bit i%64 of word
// i/64 reports whether the oracle, warmed by events [0,i), predicts
// event i. The mask is a pure function of (oracleBits, tr), so
// callers scanning the same trace repeatedly (the Figure 6/9
// experiments, across runs) can compute it once and share it
// (engine.TraceCache.Derived).
func StrideHits(oracleBits uint, tr trace.Trace) []uint64 {
	out := make([]uint64, core.HitWords(len(tr)))
	core.Hits(core.NewStride(oracleBits), tr, out)
	return out
}

// StrideHistsFromHits builds the stride-access histogram of several
// two-level predictors from a single pass over tr, given the stride
// oracle's hit mask over tr (StrideHits). It returns exactly what
// len(ps) separate StrideHist.Run calls over the same trace would:
// the oracle's hit sequence depends only on the trace, so one mask
// serves every predictor, and the per-run discarded Predict call is
// dropped outright — Predict is side-effect free for the two-level
// predictors this instrumentation applies to (vplint's predict-purity
// rule enforces it), so skipping it cannot change any count.
// Predictors with update-bearing Predict (Delayed) are not valid here;
// every p must implement core.L2Indexer.
//
// Sharing the oracle work and dropping the predict work per (trace,
// predictor pair) is what makes the Figure 6/9 scans — the costliest
// per-benchmark scans in the suite — go through the trace once
// instead of once per predictor.
func StrideHistsFromHits(hits []uint64, tr trace.Trace, ps ...core.Predictor) []Histogram {
	if len(hits) != core.HitWords(len(tr)) {
		panic("metrics: oracle hit mask does not match trace length")
	}
	idxs := make([]core.L2Indexer, len(ps))
	counts := make([][]uint64, len(ps))
	for i, p := range ps {
		idx, ok := p.(core.L2Indexer)
		if !ok {
			panic("metrics: predictor does not expose its level-2 index")
		}
		idxs[i] = idx
		counts[i] = make([]uint64, idx.L2Entries())
	}
	// The Figure 6/9 shapes dispatch on the concrete predictor types,
	// saving two interface calls per (event, predictor) on the hottest
	// scans in the suite. Counting before Update reads the same
	// pre-update index the generic loop reads.
	switch {
	case len(ps) == 1 && asFCM(ps[0]) != nil:
		f := asFCM(ps[0])
		c := counts[0]
		for ei, e := range tr {
			if core.Hit(hits, ei) {
				c[f.L2Index(e.PC)]++
			}
			f.Update(e.PC, e.Value)
		}
	case len(ps) == 2 && asFCM(ps[0]) != nil && asDFCM(ps[1]) != nil:
		f, d := asFCM(ps[0]), asDFCM(ps[1])
		cf, cd := counts[0], counts[1]
		for ei, e := range tr {
			if core.Hit(hits, ei) {
				cf[f.L2Index(e.PC)]++
				cd[d.L2Index(e.PC)]++
			}
			f.Update(e.PC, e.Value)
			d.Update(e.PC, e.Value)
		}
	default:
		for ei, e := range tr {
			hit := core.Hit(hits, ei)
			for i, p := range ps {
				if hit {
					counts[i][idxs[i].L2Index(e.PC)]++
				}
				p.Update(e.PC, e.Value)
			}
		}
	}
	out := make([]Histogram, len(ps))
	for i, c := range counts {
		sort.Slice(c, func(a, b int) bool { return c[a] > c[b] })
		out[i] = c
	}
	return out
}

// asFCM and asDFCM recover the concrete predictor types for the
// specialized scan loops; they return nil for anything else.
func asFCM(p core.Predictor) *core.FCM   { f, _ := p.(*core.FCM); return f }
func asDFCM(p core.Predictor) *core.DFCM { d, _ := p.(*core.DFCM); return d }

// Histogram returns the per-entry stride-access counts sorted in
// descending order (the paper's x axis: "l2-entry (sorted)").
func (h *StrideHist) Histogram() Histogram {
	out := append([]uint64(nil), h.counts...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Histogram is a descending-sorted count-per-entry vector.
type Histogram []uint64

// EntriesOver returns how many entries have a count above the
// threshold (e.g. "more than 100 entries are accessed more than 100
// times").
func (g Histogram) EntriesOver(threshold uint64) int {
	// counts are sorted descending; binary search the boundary.
	lo, hi := 0, len(g)
	for lo < hi {
		mid := (lo + hi) / 2
		if g[mid] > threshold {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Total returns the total number of stride-pattern accesses.
func (g Histogram) Total() uint64 {
	var s uint64
	for _, c := range g {
		s += c
	}
	return s
}
