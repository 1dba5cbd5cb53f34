// Package valuepred is the public API of the DFCM reproduction: value
// predictors (last-value, stride, two-delta, last-n, FCM, DFCM,
// hybrids), trace types, confidence estimation and measurement
// helpers, re-exported from the internal implementation packages so
// downstream code can import them.
//
// The one-minute tour:
//
//	p := valuepred.NewDFCM(16, 12)
//	for _, e := range events {           // your (pc, value) stream
//	    predicted := p.Predict(e.PC)
//	    // ... speculate with predicted ...
//	    p.Update(e.PC, e.Value)
//	}
//
// or, measuring accuracy over a trace:
//
//	res := valuepred.Run(valuepred.NewDFCM(16, 12), tr)
//	fmt.Println(res.Accuracy())
//
// See the repository README for the experiment harness that
// regenerates the paper's tables and figures.
package valuepred

import (
	"io"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/trace"
)

// Core types, aliased so values flow freely between this package and
// the internal implementation.
type (
	// Predictor is a value predictor: Predict then Update per event.
	Predictor = core.Predictor
	// Snapshotter is a predictor whose state can be exported,
	// restored, reset and inspected: what NewDelayed and NewMetaHybrid
	// wrap and return, as do NewLastValue, NewStride, NewTwoDelta,
	// NewFCM, NewDFCM and NewTAGE.
	Snapshotter = core.Snapshotter
	// ConfidentPredictor also exposes a confidence signal.
	ConfidentPredictor = core.ConfidentPredictor
	// Result accumulates prediction outcomes.
	Result = core.Result
	// ConfidenceResult splits outcomes by the confidence signal.
	ConfidenceResult = core.ConfidenceResult
	// Event is one trace record: the PC of a static instruction and
	// the 32-bit integer value it produced.
	Event = trace.Event
	// Trace is an in-memory sequence of events.
	Trace = trace.Trace
)

// Predictor constructors. Table sizes are given as log2 of the entry
// count; see each internal constructor for the exact size accounting.
var (
	// NewLastValue returns a last-value predictor with 2^bits entries.
	NewLastValue = core.NewLastValue
	// NewStride returns the paper's confidence-gated stride predictor.
	NewStride = core.NewStride
	// NewTwoDelta returns the two-delta stride predictor.
	NewTwoDelta = core.NewTwoDelta
	// NewLastN returns the last-n value predictor of Burtscher & Zorn.
	NewLastN = core.NewLastN
	// NewFCM returns a finite context method predictor (FS R-5 hash).
	NewFCM = core.NewFCM
	// NewDFCM returns the paper's differential FCM predictor.
	NewDFCM = core.NewDFCM
	// NewDFCMWidth is NewDFCM with truncated stored strides (§4.4).
	NewDFCMWidth = core.NewDFCMWidth
	// NewTAGE returns the VTAGE tagged geometric-history predictor:
	// a DFCM-style base plus tagged tables at geometrically
	// increasing stride-history lengths.
	NewTAGE = core.NewTAGE
	// NewMetaHybrid combines two components under counter selection.
	NewMetaHybrid = core.NewMetaHybrid
	// NewClassified assigns each instruction to one component
	// (dynamic classification à la Rychlik).
	NewClassified = core.NewClassified
	// NewDelayed defers table updates by a pipeline-like delay (§4.5).
	NewDelayed = core.NewDelayed
	// NewCounterConfidence gates any predictor with saturating
	// counters.
	NewCounterConfidence = core.NewCounterConfidence
	// NewHashTag implements the paper's §4.2 confidence proposal.
	NewHashTag = core.NewHashTag
	// NewCombined ANDs a hash-tag and a counter estimator.
	NewCombined = core.NewCombined
	// NewFSR builds an FS R-k history hash; NewFSR5 the paper's R-5.
	NewFSR  = hash.NewFSR
	NewFSR5 = hash.NewFSR5
)

// Measurement helpers.
var (
	// Run drives a predictor over an in-memory trace and returns the
	// outcome.
	Run = core.RunBatch
	// RunConfident additionally scores the confidence signal.
	RunConfident = core.RunConfident
	// Hits runs a predictor over an in-memory trace and records each
	// event's outcome in a bitmask, one bit per event; HitWords sizes
	// the mask and Hit reads one event's bit.
	Hits     = core.Hits
	HitWords = core.HitWords
	Hit      = core.Hit
	// UnionHits counts the events set in any mask: the hits of a
	// perfect (oracle) meta-predictor over the masks' predictors.
	UnionHits = core.UnionHits
)

// ReadTrace reads a VTR1 or VTRZ trace stream.
func ReadTrace(r io.Reader) (Trace, error) { return trace.ReadAuto(r) }

// WriteTrace writes a trace in the plain VTR1 format.
func WriteTrace(w io.Writer, t Trace) error { return trace.Write(w, t) }

// WriteTraceCompressed writes a trace in the flate-compressed VTRZ
// container.
func WriteTraceCompressed(w io.Writer, t Trace) error { return trace.WriteCompressed(w, t) }
