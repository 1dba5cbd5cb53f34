package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Durable predictor state
//
// Every predictor in this package is pure table state: given the same
// construction parameters and the same mutable state bytes, two
// instances are behaviourally indistinguishable. The Snapshotter
// interface exports exactly that mutable state — no construction
// parameters, no derived caches — so a predictor trained in one
// process can be frozen, shipped, and resumed in another with
// byte-identical subsequent predictions. The framing, versioning and
// checksumming around these raw bytes live in internal/snapshot; this
// layer defines only the per-predictor state layout.
//
// The serving machinery (Snapshotter, StateTabler, Resetter) belongs
// to exactly the predictor types a Spec can build: last-value, stride,
// two-delta, FCM, DFCM, MetaHybrid, TAGE and the Delayed wrapper.
// Those are the only predictors internal/serve holds, checkpoints or
// recycles. The offline-only types (LastN, Classified and the
// confidence estimators) run in experiments and carry none of it.
//
// Layout discipline: all integers are big-endian (matching the VP1
// wire protocol), tables are emitted in declaration order, and a
// wrapped predictor's state is embedded as a length-prefixed nested
// block so wrappers compose without knowing their children's sizes.

// Snapshotter is implemented by predictors whose complete learned
// state can be exported and re-imported. The contract mirrors
// Resetter's: RestoreState on a freshly constructed predictor must
// leave it byte-for-byte equivalent to the instance AppendState was
// called on, provided both were built with identical parameters.
type Snapshotter interface {
	Predictor
	// AppendState appends the predictor's complete mutable state to b
	// and returns the extended slice.
	AppendState(b []byte) []byte
	// RestoreState replaces the predictor's learned state with data,
	// which must be exactly one AppendState output from an identically
	// configured predictor. On error the predictor's state is
	// unspecified; callers restore into a discardable fresh instance
	// (internal/snapshot does).
	RestoreState(data []byte) error
}

// TableInfo describes one state table of a predictor for inspection
// (cmd/vpstate). Live counts entries that differ from their
// freshly-constructed value.
type TableInfo struct {
	Name    string
	Entries int
	Live    int
}

// StateTabler is implemented by predictors that can describe their
// state tables for inspection. Wrappers prefix their components'
// table names with the component name.
type StateTabler interface {
	StateTables() []TableInfo
}

// ErrState is wrapped by every RestoreState failure, so callers can
// distinguish malformed state from other errors.
var ErrState = errors.New("core: malformed predictor state")

// stateSizeErr reports a state blob whose size does not match the
// predictor's tables.
func stateSizeErr(what string, want, got int) error {
	return fmt.Errorf("%w: %s state is %d bytes, want %d", ErrState, what, got, want)
}

// mustSnapshotter returns p as a Snapshotter and panics if it is not
// one — a wrapper's snapshot is only meaningful when it reaches every
// table underneath it (the same contract as mustReset).
func mustSnapshotter(p Predictor) Snapshotter {
	s, ok := p.(Snapshotter)
	if !ok {
		panic("core: " + p.Name() + " does not implement Snapshotter")
	}
	return s
}

// appendNested appends a length-prefixed child state block.
func appendNested(b []byte, p Predictor) []byte {
	off := len(b)
	b = append(b, 0, 0, 0, 0)
	b = mustSnapshotter(p).AppendState(b)
	binary.BigEndian.PutUint32(b[off:], uint32(len(b)-off-4))
	return b
}

// splitNested splits one length-prefixed child block off the front of
// data, length-checking before any use of the claimed size.
func splitNested(data []byte) (child, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated nested state header", ErrState)
	}
	n := binary.BigEndian.Uint32(data)
	if uint64(len(data)-4) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: nested state claims %d bytes, %d remain", ErrState, n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// restoreNested splits one child block and restores it into p.
func restoreNested(data []byte, p Predictor) (rest []byte, err error) {
	child, rest, err := splitNested(data)
	if err != nil {
		return nil, err
	}
	if err := mustSnapshotter(p).RestoreState(child); err != nil {
		return nil, err
	}
	return rest, nil
}

// prefixTables returns ts with every table name prefixed, for wrappers
// aggregating component tables.
func prefixTables(prefix string, p Predictor) []TableInfo {
	st, ok := p.(StateTabler)
	if !ok {
		return nil
	}
	ts := st.StateTables()
	out := make([]TableInfo, len(ts))
	for i, t := range ts {
		t.Name = prefix + "." + t.Name
		out[i] = t
	}
	return out
}
