package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Spec is the predictor configuration in the shared flag
	// vocabulary, required: every session's predictor is built from
	// it, and a snapshot records it so a restart (or cmd/vpstate) can
	// rebuild the exact predictor.
	Spec core.Spec
	// Shards is the number of shard locks. Sessions are assigned to
	// shards by hashing the session ID; a request runs on its caller's
	// goroutine holding its shard's lock, so sessions on different
	// shards never contend. 0 selects GOMAXPROCS.
	Shards int
	// MailboxDepth bounds how many requests may wait for one shard's
	// lock behind the one in service. A request beyond the bound is
	// backpressure: it is answered StatusBusy immediately ("no
	// prediction") instead of blocking the connection. 0 selects 128.
	MailboxDepth int
	// MaxSessions caps live sessions across all shards; session
	// creation beyond the cap is answered StatusBusy. 0 selects 4096.
	MaxSessions int
	// CheckpointDir, when non-empty, enables durable session state:
	// every session is snapshot to one file in the directory
	// (session-<id>.vps) on graceful Close, and LoadCheckpoints
	// warm-starts from the same files on boot. The directory is
	// created if missing.
	CheckpointDir string
	// CheckpointInterval adds periodic background checkpoints between
	// the boot and drain ones. 0 disables the ticker (checkpoint on
	// drain only). Requires CheckpointDir.
	CheckpointInterval time.Duration
	// StatsWindow sizes the per-session windowed accuracy buckets, in
	// judged lookups (UpdateBatch/RunBatch events): a session's
	// windowed hit rate covers its last one-to-two windows of judged
	// traffic. 0 selects 4096.
	StatsWindow int
	// AdoptSnapshotSpecs lets LoadCheckpoints and RestoreSession
	// install sessions whose snapshot spec differs from the engine's:
	// the session is rebuilt under the snapshot's own spec, recorded
	// as its per-session override — how an autotuned server keeps
	// hot-swapped sessions across a restart or a migration. When false
	// (the default), mismatched snapshots are refused, preserving the
	// invariant that changed boot flags mean a deliberate cold start.
	AdoptSnapshotSpecs bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 128
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.StatsWindow <= 0 {
		c.StatsWindow = 4096
	}
	return c
}

// Stats is an engine-level snapshot, served over the protocol's Stats
// op and as JSON on the optional HTTP listener.
type Stats struct {
	Predictor   string       `json:"predictor"`
	Shards      int          `json:"shards"`
	Sessions    int          `json:"sessions"`
	Predictions uint64       `json:"predictions"` // PredictBatch + RunBatch lookups
	Hits        uint64       `json:"hits"`        // correct judged lookups
	HitRate     float64      `json:"hit_rate"`    // Hits / Updates
	Updates     uint64       `json:"updates"`     // judged lookups: UpdateBatch + RunBatch events
	Resets      uint64       `json:"resets"`
	Dropped     uint64       `json:"dropped"` // requests shed by backpressure
	QueueDepth  int          `json:"queue_depth"`
	ShardStats  []ShardStats `json:"shard_stats"`

	// Checkpointing counters; all zero when CheckpointDir is unset.
	Checkpoints      uint64 `json:"checkpoints"`       // completed whole-engine sweeps
	CheckpointErrors uint64 `json:"checkpoint_errors"` // sessions that failed to persist
	Restored         uint64 `json:"restored_sessions"` // sessions warm-started from disk

	// Swaps counts predictor hot-swaps applied by SwapSession (the
	// autotuner's promotion path); zero on untuned engines.
	Swaps uint64 `json:"swaps"`

	// SessionStats lists every live session's accuracy counters,
	// sorted by session ID. Counters are read with relaxed ordering,
	// like the engine-level totals.
	SessionStats []SessionStat `json:"session_stats,omitempty"`
}

// Merge adds every counter in o to s and recomputes HitRate — the
// cluster-wide view over several engines. Predictor is taken from o
// when s has none yet; the per-shard and per-session lists are not
// merged.
func (s *Stats) Merge(o Stats) {
	if s.Predictor == "" {
		s.Predictor = o.Predictor
	}
	s.Shards += o.Shards
	s.Sessions += o.Sessions
	s.Predictions += o.Predictions
	s.Hits += o.Hits
	s.Updates += o.Updates
	s.Resets += o.Resets
	s.Dropped += o.Dropped
	s.QueueDepth += o.QueueDepth
	s.Checkpoints += o.Checkpoints
	s.CheckpointErrors += o.CheckpointErrors
	s.Restored += o.Restored
	s.Swaps += o.Swaps
	s.HitRate = 0
	if s.Updates > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Updates)
	}
}

// SessionStat is the per-session slice of a Stats snapshot: lifetime
// hits/lookups since the session started (surviving checkpoint
// restores) plus a windowed view over the last one-to-two
// Config.StatsWindow's worth of judged lookups — the autotuner's
// scoring input and a per-client accuracy readout on its own. A
// "judged lookup" is one UpdateBatch or RunBatch event: the predictor
// was consulted and the prediction compared against the actual value.
type SessionStat struct {
	Session       uint64  `json:"session"`
	Predictions   uint64  `json:"predictions"` // PredictBatch + RunBatch lookups
	Lookups       uint64  `json:"lookups"`     // judged lookups since start
	Hits          uint64  `json:"hits"`        // correct judged lookups since start
	HitRate       float64 `json:"hit_rate"`
	WindowLookups uint64  `json:"window_lookups"`
	WindowHits    uint64  `json:"window_hits"`
	WindowHitRate float64 `json:"window_hit_rate"`
	// Swaps counts this session's predictor hot-swaps; Spec is the
	// session's canonical predictor spec when it differs from the
	// engine's (after a swap or an adopted snapshot), nil otherwise.
	Swaps uint64     `json:"swaps,omitempty"`
	Spec  *core.Spec `json:"spec,omitempty"`
}

// ShardStats is the per-shard slice of a Stats snapshot.
type ShardStats struct {
	Sessions    int    `json:"sessions"` // occupancy
	Predictions uint64 `json:"predictions"`
	QueueDepth  int    `json:"queue_depth"`
}

// session is one client's predictor state, kept in one shard's map.
// The predictor is only touched by the request holding that shard's
// lock; the counters are atomics because Stats reads them without it
// (the lock holder stays the only writer, so the atomics are a
// publication mechanism, not a contention point). predictions/hits/updates are
// lifetime totals (they survive ResetSession); checkpoints persist
// them so a restored session resumes its stats where it left off.
// They are the only record of served traffic: the engine totals are
// their sums.
//
// spec, when non-nil, is the canonical predictor spec that built p —
// set by SwapSession and by spec-adopting restores, read by
// checkpoints and stats. nil means the engine's Config.Spec.
//
// The win/prev pairs are the windowed-accuracy buckets: judged
// lookups land in win, which rotates into prev every
// Config.StatsWindow lookups, so the windowed hit rate always covers
// the last one-to-two windows of judged traffic.
type session struct {
	p    core.Snapshotter
	spec atomic.Pointer[core.Spec]

	predictions atomic.Uint64
	hits        atomic.Uint64
	updates     atomic.Uint64
	swaps       atomic.Uint64

	winLookups  atomic.Uint64
	winHits     atomic.Uint64
	prevLookups atomic.Uint64
	prevHits    atomic.Uint64
}

// judged credits n judged lookups (hits of them correct) to the
// session's lifetime and windowed counters, rotating the window
// bucket when it fills. Runs under the shard lock (single writer).
func (s *session) judged(n, hits, window uint64) {
	s.updates.Add(n)
	s.hits.Add(hits)
	s.winHits.Add(hits)
	if s.winLookups.Add(n) >= window {
		s.prevLookups.Store(s.winLookups.Load())
		s.prevHits.Store(s.winHits.Load())
		s.winLookups.Store(0)
		s.winHits.Store(0)
	}
}

// stat renders the session's counters as one Stats entry.
func (s *session) stat(id uint64) SessionStat {
	st := SessionStat{
		Session:       id,
		Predictions:   s.predictions.Load(),
		Lookups:       s.updates.Load(),
		Hits:          s.hits.Load(),
		WindowLookups: s.prevLookups.Load() + s.winLookups.Load(),
		WindowHits:    s.prevHits.Load() + s.winHits.Load(),
		Swaps:         s.swaps.Load(),
		Spec:          s.spec.Load(),
	}
	if st.Lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Lookups)
	}
	if st.WindowLookups > 0 {
		st.WindowHitRate = float64(st.WindowHits) / float64(st.WindowLookups)
	}
	return st
}

// shard owns a disjoint set of sessions. A request runs on its
// caller's goroutine with mu held, so the shard's requests execute
// one at a time and predictors need no locks of their own. sessions
// is only touched with mu held: enter takes mu on the op's behalf and
// leave releases it.
type shard struct {
	mu       sync.Mutex
	sessions map[uint64]*session
	// load counts the requests in service on the shard plus those
	// waiting for mu: enter's admission count.
	load atomic.Int64
}

// Engine is the sharded session store at the heart of the service.
// All exported methods are safe for concurrent use.
type Engine struct {
	cfg     Config
	name    string // predictor config name, for stats
	window  uint64 // Config.StatsWindow, precomputed for the hot path
	shards  []*shard
	dropped atomic.Uint64
	resets  atomic.Uint64
	swaps   atomic.Uint64
	tap     atomic.Pointer[Tap] // traffic mirror hook; nil when untapped

	// byID indexes every live session across shards, for the session
	// cap and stats reads; a session's predictor is still only touched
	// under its shard's lock. Sessions are never deleted, so byID is
	// also the live-session count.
	sessMu sync.RWMutex
	byID   map[uint64]*session

	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	restored         atomic.Uint64
	ckptQuit         chan struct{} // nil unless the ticker loop runs
	ckptWG           sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// NewEngine builds the engine's cfg.Shards shards and, when periodic
// checkpoints are configured, starts their ticker. Callers must Close
// it: Close takes the drain checkpoint and stops the ticker.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	probe, err := cfg.Spec.New()
	if err != nil {
		return nil, fmt.Errorf("serve: spec: %w", err)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	e := &Engine{
		cfg:    cfg,
		name:   probe.Name(),
		window: uint64(cfg.StatsWindow),
		shards: make([]*shard, cfg.Shards),
		byID:   make(map[uint64]*session),
	}
	for i := range e.shards {
		e.shards[i] = &shard{sessions: make(map[uint64]*session)}
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointInterval > 0 {
		e.ckptQuit = make(chan struct{})
		e.ckptWG.Add(1)
		go e.checkpointLoop(cfg.CheckpointInterval)
	}
	return e, nil
}

// shardFor assigns a session to a shard, returning its index in
// e.shards, with a splitmix64 finalizer, so adjacent session IDs (the
// common client choice) spread evenly.
func (e *Engine) shardFor(session uint64) int {
	x := session + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(e.shards)))
}

// install makes sess session id on shard s and returns it; a nil sess
// installs a fresh predictor built from Config.Spec. It is the one
// session-creation path — first traffic, warm start and restore — and
// runs under the shard lock. A live session is replaced only when
// replace is set (StatusBadRequest otherwise); a new one must fit
// under Config.MaxSessions (StatusBusy otherwise), counted and
// inserted under one lock so concurrent shards cannot overshoot the
// cap.
func (e *Engine) install(s *shard, id uint64, sess *session, replace bool) (*session, Status) {
	_, live := s.sessions[id]
	if live && !replace {
		return nil, StatusBadRequest
	}
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if !live && len(e.byID) >= e.cfg.MaxSessions {
		return nil, StatusBusy
	}
	if sess == nil {
		p, err := e.cfg.Spec.New()
		if err != nil {
			panic("serve: spec validated at engine start cannot fail: " + err.Error())
		}
		sess = &session{p: p}
	}
	s.sessions[id] = sess
	e.byID[id] = sess
	return sess, StatusOK
}

// enter admits a request for session id. A closed engine answers
// StatusClosed; when the shard already has one request in service and
// MailboxDepth waiting, the request degrades to StatusBusy, counted in
// Dropped, instead of blocking. On StatusOK enter returns holding the
// engine read lock, which lets Close wait for every request in flight,
// and the shard lock; the op calls leave when done.
func (e *Engine) enter(id uint64) (*shard, Status) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, StatusClosed
	}
	s := e.shards[e.shardFor(id)]
	if s.load.Add(1) > int64(1+e.cfg.MailboxDepth) {
		s.load.Add(-1)
		e.mu.RUnlock()
		e.dropped.Add(1)
		return nil, StatusBusy
	}
	s.mu.Lock()
	return s, StatusOK
}

// leave releases what enter took.
func (e *Engine) leave(s *shard) {
	s.mu.Unlock()
	s.load.Add(-1)
	e.mu.RUnlock()
}

// enterSession is enter for the ops that create their session on
// first traffic: it also returns the session, creating it if the
// session cap allows. Over the cap it answers StatusBusy holding
// nothing.
func (e *Engine) enterSession(id uint64) (*shard, *session, Status) {
	s, st := e.enter(id)
	if st != StatusOK {
		return nil, nil, st
	}
	sess, ok := s.sessions[id]
	if !ok {
		if sess, st = e.install(s, id, nil, false); st != StatusOK {
			e.leave(s)
			return nil, nil, st
		}
	}
	return s, sess, StatusOK
}

// PredictBatch returns the session predictor's predictions for pcs,
// in order, against the table state at batch start.
func (e *Engine) PredictBatch(sessionID uint64, pcs []uint32) ([]uint32, Status) {
	return e.PredictBatchAppend(sessionID, pcs, nil)
}

// PredictBatchAppend is PredictBatch writing the predictions into
// out's backing storage when its capacity suffices (allocating a
// larger slice otherwise); the returned slice replaces the caller's
// scratch. The predictions are written on the caller's goroutine
// before the call returns.
func (e *Engine) PredictBatchAppend(sessionID uint64, pcs []uint32, out []uint32) ([]uint32, Status) {
	s, sess, st := e.enterSession(sessionID)
	if st != StatusOK {
		return nil, st
	}
	defer e.leave(s)
	values := out
	if cap(values) >= len(pcs) {
		values = values[:len(pcs)]
	} else {
		values = make([]uint32, len(pcs))
	}
	for i, pc := range pcs {
		values[i] = sess.p.Predict(pc)
	}
	sess.predictions.Add(uint64(len(pcs)))
	return values, StatusOK
}

// UpdateBatch trains the session predictor with the outcomes, in
// order.
func (e *Engine) UpdateBatch(sessionID uint64, events []trace.Event) Status {
	_, st := e.train(sessionID, events, false)
	return st
}

// RunBatch performs predict-compare-update per event, in order, and
// returns the number of correct predictions.
func (e *Engine) RunBatch(sessionID uint64, events []trace.Event) (hits uint32, st Status) {
	return e.train(sessionID, events, true)
}

// train is the body of UpdateBatch and RunBatch, which differ only in
// that RunBatch counts its lookups as predictions. Every Spec kind is
// judged by its own Predict answer, and core.RunBatch mirrors core.Run
// exactly (concrete-type batch loops), so the hits are those a client
// comparing PredictBatch answers would count, and a served replay stays
// bit-equivalent to cmd/vpredict on the same spec.
func (e *Engine) train(sessionID uint64, events []trace.Event, predictions bool) (uint32, Status) {
	s, sess, st := e.enterSession(sessionID)
	if st != StatusOK {
		return 0, st
	}
	defer e.leave(s)
	seq := sess.updates.Load()
	hits := core.RunBatch(sess.p, events).Correct
	if predictions {
		sess.predictions.Add(uint64(len(events)))
	}
	sess.judged(uint64(len(events)), hits, e.window)
	// The mirror must run before leave: returning hands the events
	// storage back to the caller, which may overwrite it.
	e.mirror(sessionID, seq, events)
	return uint32(hits), StatusOK
}

// ResetSession clears the session's learned state in place (the
// session stays allocated), within its own configuration: a swapped
// session keeps its swapped spec. Resetting an untouched session
// creates it.
func (e *Engine) ResetSession(sessionID uint64) Status {
	s, sess, st := e.enterSession(sessionID)
	if st != StatusOK {
		return st
	}
	defer e.leave(s)
	sess.p.Reset()
	e.resets.Add(1)
	return StatusOK
}

// SnapshotSession returns the session's encoded snapshot file (the
// internal/snapshot format): spec, lifetime counters and complete
// predictor state, captured atomically under the owning shard's lock.
// StatusBadRequest if the session does not exist (a snapshot never
// creates one), StatusUnsupported if its predictor cannot export
// state.
func (e *Engine) SnapshotSession(sessionID uint64) ([]byte, Status) {
	s, st := e.enter(sessionID)
	if st != StatusOK {
		return nil, st
	}
	defer e.leave(s)
	sess, ok := s.sessions[sessionID]
	if !ok {
		return nil, StatusBadRequest
	}
	snap, err := e.captureSession(sessionID, sess)
	if err != nil {
		return nil, StatusUnsupported
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return nil, StatusBadRequest
	}
	return buf.Bytes(), StatusOK
}

// RestoreSession installs a session from its encoded snapshot blob —
// the bytes SnapshotSession returned, possibly on another engine,
// which is how the cluster tier migrates a live session between
// backends. Admission follows the same rule as a warm start
// (admitSnapshot): StatusSpecMismatch for a foreign spec unless the
// engine adopts snapshot specs, StatusBadRequest for a meta session
// that disagrees with sessionID or for undecodable or semantically
// invalid bytes. A restore is authoritative: an existing live session
// is replaced, which makes a re-driven migration idempotent. Decode
// and state validation run before the shard lock is taken; only the
// install itself holds it.
func (e *Engine) RestoreSession(sessionID uint64, blob []byte) Status {
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		return StatusBadRequest
	}
	sess, st := e.admitSnapshot(sessionID, snap)
	if st != StatusOK {
		return st
	}
	s, st := e.enter(sessionID)
	if st != StatusOK {
		return st
	}
	defer e.leave(s)
	return e.restore(s, sessionID, sess, true)
}

// Snapshot collects the engine-level stats. The traffic totals and
// the per-shard counts are sums over the sessions, which never leave
// the engine. Counters are read with relaxed ordering — a snapshot
// taken during traffic is approximate by nature.
func (e *Engine) Snapshot() Stats {
	st := Stats{
		Predictor:        e.name,
		Shards:           len(e.shards),
		Resets:           e.resets.Load(),
		Dropped:          e.dropped.Load(),
		Checkpoints:      e.checkpoints.Load(),
		CheckpointErrors: e.checkpointErrors.Load(),
		Restored:         e.restored.Load(),
		Swaps:            e.swaps.Load(),
		ShardStats:       make([]ShardStats, len(e.shards)),
	}
	e.sessMu.RLock()
	st.Sessions = len(e.byID)
	st.SessionStats = make([]SessionStat, 0, len(e.byID))
	for id, sess := range e.byID {
		ss := sess.stat(id)
		st.SessionStats = append(st.SessionStats, ss)
		st.Predictions += ss.Predictions
		st.Hits += ss.Hits
		st.Updates += ss.Lookups
		sh := &st.ShardStats[e.shardFor(id)]
		sh.Sessions++
		sh.Predictions += ss.Predictions
	}
	e.sessMu.RUnlock()
	sort.Slice(st.SessionStats, func(i, j int) bool {
		return st.SessionStats[i].Session < st.SessionStats[j].Session
	})
	for i, s := range e.shards {
		// The request in service holds the lock; the rest are waiting.
		waiting := int(max(s.load.Load()-1, 0))
		st.ShardStats[i].QueueDepth = waiting
		st.QueueDepth += waiting
	}
	if st.Updates > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Updates)
	}
	return st
}

// StatsJSON renders a snapshot as JSON (expvar-style; also the Stats
// op's response body).
func (e *Engine) StatsJSON() []byte {
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		// Stats contains only marshalable fields; keep the protocol
		// alive even if that ever changes.
		return []byte(`{"error":"stats marshal failed"}`)
	}
	return b
}

// Close drains in-flight requests, stops the checkpoint ticker and
// takes the final checkpoint when checkpointing is configured.
// Requests arriving after Close are answered StatusClosed. Close is
// idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Acquiring the write lock above waited out every in-flight request
	// (each holds the read lock until it returns), so the shards are
	// now idle — exactly the state for the drain checkpoint.
	if e.cfg.CheckpointDir != "" {
		if e.ckptQuit != nil {
			close(e.ckptQuit)
			e.ckptWG.Wait()
		}
		// A failed drain checkpoint is counted in CheckpointErrors;
		// shutdown proceeds — it must not wedge the process exit.
		_, _ = e.CheckpointAll()
	}
}
