package serve

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Tap observes a mirror of the engine's training traffic — the hook
// the online autotuner (internal/autotune) hangs its shadow
// evaluation on. Mirror is invoked under the session's shard lock for
// every UpdateBatch and RunBatch, after the session's predictor has
// been trained with the events and strictly before the request returns
// to its caller (the caller owns the events storage and may reuse it
// the moment the request returns).
//
// Contract: Mirror must not block — the serving hot path runs it
// inline, holding the shard lock — must not call back into the engine,
// and must not retain events past the call; an
// implementation that wants the data copies it into storage it owns
// and sheds when its own queue is full. seq is the session's lifetime
// update count before this batch, a deterministic per-session
// position that sampling decisions can key on.
type Tap interface {
	Mirror(session, seq uint64, events []trace.Event)
}

// SetTap installs (or, with nil, removes) the engine's traffic tap.
// Install the tap before traffic that should be observed; the swap
// itself is atomic and safe against concurrent traffic, which simply
// sees the old value until the store lands.
func (e *Engine) SetTap(t Tap) {
	if t == nil {
		e.tap.Store(nil)
		return
	}
	e.tap.Store(&t)
}

// mirror forwards one trained batch to the tap, if any. Runs under the
// shard lock; kept tiny so the no-tap configuration pays one
// atomic load per batch.
func (e *Engine) mirror(session, seq uint64, events []trace.Event) {
	if tp := e.tap.Load(); tp != nil {
		(*tp).Mirror(session, seq, events)
	}
}

// SwapSession atomically replaces a live session's predictor with p —
// the autotuner's promotion path. It runs under the session's shard
// lock like any other request, so it serializes with the session's
// traffic: every event is processed entirely by the old predictor or
// entirely by the new one, never split. Lifetime counters survive the
// swap (stats continuity); the windowed accuracy buckets reset, since
// they now measure a different predictor. spec must describe p: a
// checkpoint taken after the swap records it as the session's
// canonical spec, so a warm restart rebuilds the swapped
// configuration, not the engine default.
//
// A swap never creates a session (missing ones answer
// StatusBadRequest) and is shed like ordinary traffic when the shard
// is at its MailboxDepth bound (StatusBusy) — the tuner retries at a later
// evaluation instead of blocking. A predictor that is not a
// core.Snapshotter cannot be served (checkpointed, migrated, reset)
// and answers StatusBadRequest.
func (e *Engine) SwapSession(sessionID uint64, spec core.Spec, p core.Predictor) Status {
	sn, ok := p.(core.Snapshotter)
	if !ok || spec.Kind == "" {
		return StatusBadRequest
	}
	s, st := e.enter(sessionID)
	if st != StatusOK {
		return st
	}
	defer e.leave(s)
	sess, ok := s.sessions[sessionID]
	if !ok {
		return StatusBadRequest
	}
	sess.p = sn
	canon := spec.Canonical()
	sess.spec.Store(&canon)
	sess.swaps.Add(1)
	sess.winLookups.Store(0)
	sess.winHits.Store(0)
	sess.prevLookups.Store(0)
	sess.prevHits.Store(0)
	e.swaps.Add(1)
	return StatusOK
}
