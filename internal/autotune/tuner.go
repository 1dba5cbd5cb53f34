// Package autotune is the online autotuning service: it taps a
// sampled fraction of a serve.Engine's live training traffic, shadows
// each tapped session through a set of candidate predictor
// configurations (one engine.Stream per session, fed the mirrored
// batches), scores the candidates online against a shadow of the
// incumbent, and promotes a winner by hot-swapping the live session's
// predictor — warm, because the shadow has already been trained on
// the mirrored stream.
//
// The tuner never blocks serving: the tap enqueues copies of sampled
// batches into a bounded mailbox and sheds when it is full, and the
// hot-swap itself is an internal engine op that serializes with the
// session's traffic under its shard lock. A session whose candidates
// never win serves bit-identically to the same session on an untuned
// engine — the tap observes, it does not touch.
//
// Determinism: sampling is a pure hash of (seed, session, seq), where
// seq is the session's lifetime update count before the batch, so a
// fixed seed over a fixed batch sequence selects a fixed mirrored
// subsequence; the promoted predictor is then bit-identical to a fresh
// predictor of the winning spec trained offline on that subsequence.
// The equivalence tests pin both properties.
package autotune

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Config parameterizes a Tuner.
type Config struct {
	// Engine is the serve engine to tap and tune. Required.
	Engine *serve.Engine
	// Boot is the engine's boot predictor spec — the presumed incumbent
	// for sessions the tuner has not swapped yet. Required.
	Boot core.Spec
	// Candidates are the predictor specs to shadow-evaluate against
	// each session's incumbent. Duplicates (canonically) are dropped;
	// a candidate equal to a session's incumbent is not shadowed for
	// that session. At least one candidate is required.
	Candidates []core.Spec
	// Objective selects the promotion score: "accuracy" (windowed hit
	// rate, the default) or "efficiency" (windowed hit rate per Kbit of
	// predictor state — the paper's accuracy-per-budget axis).
	Objective string
	// SampleRate is the fraction of training batches mirrored per
	// session, in (0,1]; 0 selects 1 (mirror everything). Sampling is
	// a deterministic hash of (Seed, session, seq).
	SampleRate float64
	// Seed keys the sampling hash.
	Seed uint64
	// MailboxDepth bounds the tuner's batch queue. A full mailbox
	// sheds the batch (counted in Status.Shed) instead of blocking the
	// served request, which holds its shard lock. 0 selects 256.
	MailboxDepth int
	// Window is the shadow scoring window in judged events: scores
	// cover the last one-to-two windows of mirrored traffic. 0 selects
	// 4096.
	Window int
	// MinMirrored is the number of mirrored events a session's shadow
	// set must absorb before it is eligible for promotion — and, since
	// shadows rebuild fresh after a swap, the cooldown between swaps.
	// 0 selects 2*Window.
	MinMirrored uint64
	// Margin is the hysteresis: a candidate's score must exceed the
	// incumbent shadow's by this relative margin to be promoted. 0
	// selects 0.01; negative means no margin.
	Margin float64
	// MaxSessions caps the sessions the tuner tracks (each tracked
	// session holds one shadow predictor per candidate). Batches from
	// sessions beyond the cap are dropped (Status.Ignored). 0 selects
	// 1024.
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 256
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.MinMirrored == 0 {
		c.MinMirrored = 2 * uint64(c.Window)
	}
	if c.Margin == 0 {
		c.Margin = 0.01
	}
	if c.Margin < 0 {
		c.Margin = 0
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.Objective == "" {
		c.Objective = "accuracy"
	}
	return c
}

// batch is one mirrored training batch, copied into tuner-owned
// storage on the enqueue path and recycled through a pool.
type batch struct {
	session uint64
	seq     uint64
	events  []trace.Event
}

// ctlReq is a control request (Sync/Status) threaded through the same
// FIFO mailbox as batches, so its reply proves every batch enqueued
// before it has been fully processed — the determinism anchor the
// swap-equivalence tests rely on.
type ctlReq struct {
	status bool // build a Status reply (Sync leaves it zero)
	resp   chan Status
}

// msg is one mailbox entry: exactly one of b/ctl is set.
type msg struct {
	b   *batch
	ctl *ctlReq
}

// shadowSet is one tracked session's tuner state: a stream of shadow
// predictors — index 0 the incumbent's twin, the rest the candidates —
// plus the two-snapshot rotation that scopes scores to a sliding
// window. Owned exclusively by the tuner loop goroutine.
type shadowSet struct {
	id        uint64
	incumbent core.Spec   // canonical
	specs     []core.Spec // canonical, aligned with the stream; [0] == incumbent
	sizes     []int64     // SizeBits per shadow, for the efficiency objective
	stream    *engine.Stream
	mirrored  uint64        // events fed since (re)build
	rotAt     uint64        // mirrored threshold for the next rotation
	older     []core.Result // cumulative results two rotations back
	newer     []core.Result // cumulative results at the last rotation
	swaps     uint64
}

// Tuner is the autotuning service around one engine. Mirror runs on
// the serving goroutines, under the engine's shard locks; all tuning
// state is owned by the single loop goroutine, which Close joins.
type Tuner struct {
	cfg        Config
	boot       core.Spec
	candidates []core.Spec // canonical, deduped
	efficiency bool

	mail chan msg
	pool sync.Pool // *batch recycling for the zero-alloc enqueue path
	quit chan struct{}
	wg   sync.WaitGroup

	// Hot-path counters, written by Mirror on the serving goroutines.
	mirroredBatches atomic.Uint64
	mirroredEvents  atomic.Uint64
	shed            atomic.Uint64 // mailbox full
	skipped         atomic.Uint64 // failed the sampling hash

	// Loop-owned counters and state (no lock: single goroutine).
	states  map[uint64]*shadowSet
	swaps   uint64
	busy    uint64 // promotions deferred on StatusBusy
	errors  uint64 // promotions rejected by the engine
	ignored uint64 // batches from beyond-cap sessions

	mu     sync.Mutex
	closed bool // vplint:guardedby mu
}

// New validates cfg, starts the tuner loop and installs the tuner as
// cfg.Engine's traffic tap. Callers must Close it to detach the tap
// and join the loop.
func New(cfg Config) (*Tuner, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, fmt.Errorf("autotune: Config.Engine is required")
	}
	if _, err := cfg.Boot.New(); err != nil {
		return nil, fmt.Errorf("autotune: boot spec: %w", err)
	}
	if cfg.Objective != "accuracy" && cfg.Objective != "efficiency" {
		return nil, fmt.Errorf("autotune: unknown objective %q", cfg.Objective)
	}
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("autotune: at least one candidate spec is required")
	}
	var candidates []core.Spec
	for _, c := range cfg.Candidates {
		if _, err := c.New(); err != nil {
			return nil, fmt.Errorf("autotune: candidate %+v: %w", c, err)
		}
		cc := c.Canonical()
		dup := false
		for _, have := range candidates {
			if have == cc {
				dup = true
				break
			}
		}
		if !dup {
			candidates = append(candidates, cc)
		}
	}
	t := &Tuner{
		cfg:        cfg,
		boot:       cfg.Boot.Canonical(),
		candidates: candidates,
		efficiency: cfg.Objective == "efficiency",
		mail:       make(chan msg, cfg.MailboxDepth),
		quit:       make(chan struct{}),
		states:     make(map[uint64]*shadowSet),
	}
	t.pool.New = func() any { return new(batch) }
	t.wg.Add(1)
	go t.loop()
	cfg.Engine.SetTap(t)
	return t, nil
}

// Mirror implements serve.Tap under the engine's shard locks: hash
// the batch's deterministic position, copy a sampled batch into pooled
// storage and enqueue it, shedding on a full mailbox. Never blocks,
// never retains events, and allocates nothing once the pool is warm.
func (t *Tuner) Mirror(session, seq uint64, events []trace.Event) {
	if len(events) == 0 {
		return
	}
	if !t.sampled(session, seq) {
		t.skipped.Add(1)
		return
	}
	b := t.pool.Get().(*batch)
	b.session, b.seq = session, seq
	b.events = append(b.events[:0], events...)
	select {
	case t.mail <- msg{b: b}:
		t.mirroredBatches.Add(1)
		t.mirroredEvents.Add(uint64(len(events)))
	default:
		t.shed.Add(1)
		t.pool.Put(b)
	}
}

// sampled is the deterministic per-batch coin: a splitmix64-style hash
// of (seed, session, seq) against the sample rate. Stateless, so it
// needs no synchronization across serving goroutines and a fixed seed
// reproduces the exact mirrored subsequence.
func (t *Tuner) sampled(session, seq uint64) bool {
	if t.cfg.SampleRate >= 1 {
		return true
	}
	x := t.cfg.Seed ^ session*0x9e3779b97f4a7c15 ^ seq*0xff51afd7ed558ccd
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < t.cfg.SampleRate
}

// loop is the tuner goroutine: drain the mailbox, feed shadows, score
// and promote. Exits on Close; joinable through the WaitGroup.
func (t *Tuner) loop() {
	defer t.wg.Done()
	for {
		select {
		case m := <-t.mail:
			if m.ctl != nil {
				var st Status
				if m.ctl.status {
					st = t.buildStatus()
				}
				m.ctl.resp <- st
				continue
			}
			t.process(m.b)
			t.pool.Put(m.b)
		case <-t.quit:
			return
		}
	}
}

// process feeds one mirrored batch into its session's shadow set,
// rotating the scoring window and attempting a promotion.
func (t *Tuner) process(b *batch) {
	ss := t.states[b.session]
	if ss == nil {
		if len(t.states) >= t.cfg.MaxSessions {
			t.ignored++
			return
		}
		ss = t.build(b.session, t.boot)
		t.states[b.session] = ss
	}
	ss.stream.Feed(b.events)
	ss.mirrored += uint64(len(b.events))
	if ss.mirrored >= ss.rotAt {
		copy(ss.older, ss.newer)
		copy(ss.newer, ss.stream.Results())
		ss.rotAt = ss.mirrored + uint64(t.cfg.Window)
	}
	t.maybePromote(ss)
}

// build assembles a fresh shadow set for a session under the given
// incumbent: one cold shadow of the incumbent itself (the fairness
// baseline — it sees exactly the traffic the candidates see) plus one
// per candidate that differs from it.
func (t *Tuner) build(id uint64, incumbent core.Spec) *shadowSet {
	specs := []core.Spec{incumbent.Canonical()}
	for _, c := range t.candidates {
		if c != specs[0] {
			specs = append(specs, c)
		}
	}
	preds := make([]core.Predictor, len(specs))
	sizes := make([]int64, len(specs))
	for i, sp := range specs {
		p, err := sp.New()
		if err != nil {
			panic("autotune: spec validated at tuner start cannot fail: " + err.Error())
		}
		preds[i] = p
		sizes[i] = p.SizeBits()
	}
	return &shadowSet{
		id:        id,
		incumbent: specs[0],
		specs:     specs,
		sizes:     sizes,
		stream:    engine.NewStream(preds, 0),
		rotAt:     uint64(t.cfg.Window),
		older:     make([]core.Result, len(specs)),
		newer:     make([]core.Result, len(specs)),
	}
}

// score returns shadow i's windowed promotion score: hit rate over the
// last one-to-two windows, divided by the predictor's Kbits under the
// efficiency objective. ok is false while the window is empty.
func (t *Tuner) score(ss *shadowSet, i int) (float64, bool) {
	cur := ss.stream.Results()[i]
	lookups := cur.Predictions - ss.older[i].Predictions
	if lookups == 0 {
		return 0, false
	}
	acc := float64(cur.Correct-ss.older[i].Correct) / float64(lookups)
	if t.efficiency {
		return acc * 1024 / float64(ss.sizes[i]), true
	}
	return acc, true
}

// maybePromote hot-swaps the session to its best candidate shadow when
// that candidate beats the incumbent shadow by the hysteresis margin.
// On success the shadow set rebuilds fresh around the winner, which
// both restarts the fairness baseline and enforces the MinMirrored
// cooldown before the next swap.
func (t *Tuner) maybePromote(ss *shadowSet) {
	if ss.mirrored < t.cfg.MinMirrored || len(ss.specs) < 2 {
		return
	}
	incScore, ok := t.score(ss, 0)
	if !ok {
		return
	}
	best, bestScore := -1, 0.0
	for i := 1; i < len(ss.specs); i++ {
		if sc, ok := t.score(ss, i); ok && (best < 0 || sc > bestScore) {
			best, bestScore = i, sc
		}
	}
	if best < 0 || bestScore <= incScore*(1+t.cfg.Margin) {
		return
	}
	// The shadow is handed to the engine warm; the engine installs it
	// under the session's shard lock, serialized with traffic.
	switch t.cfg.Engine.SwapSession(ss.id, ss.specs[best], ss.stream.Predictor(best)) {
	case serve.StatusOK:
		t.swaps++
		winner := ss.specs[best]
		nss := t.build(ss.id, winner)
		nss.swaps = ss.swaps + 1
		t.states[ss.id] = nss
	case serve.StatusBusy:
		// Shed like traffic: the next mirrored batch retries.
		t.busy++
	default:
		t.errors++
	}
}

// Sync blocks until every batch mirrored before the call has been
// fully processed (the control request rides the same FIFO mailbox).
// Returns immediately if the tuner is closed. Test and drain hook;
// serving never needs it.
func (t *Tuner) Sync() { t.control(false) }

// Status reports the tuner's counters and per-session shadow scores,
// consistent as of all batches mirrored before the call.
func (t *Tuner) Status() Status { return t.control(true) }

func (t *Tuner) control(status bool) Status {
	req := &ctlReq{status: status, resp: make(chan Status, 1)}
	select {
	case t.mail <- msg{ctl: req}:
	case <-t.quit:
		return Status{Closed: true}
	}
	select {
	case st := <-req.resp:
		return st
	case <-t.quit:
		return Status{Closed: true}
	}
}

// Close detaches the tap from the engine and joins the tuner loop.
// Batches still in the mailbox are discarded — the tuner holds only
// copies, so nothing of the engine's is lost. Idempotent.
func (t *Tuner) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	t.cfg.Engine.SetTap(nil)
	close(t.quit)
	t.wg.Wait()
}

// Status is a point-in-time view of the tuner, served as JSON on the
// vpserve admin endpoint.
type Status struct {
	// Closed reports a Status/Sync call that raced tuner shutdown; all
	// other fields are zero.
	Closed bool `json:"closed,omitempty"`

	Objective string `json:"objective"`
	Sessions  int    `json:"sessions"` // tracked shadow sets

	MirroredBatches uint64 `json:"mirrored_batches"`
	MirroredEvents  uint64 `json:"mirrored_events"`
	Shed            uint64 `json:"shed"`    // mailbox-full drops
	Skipped         uint64 `json:"skipped"` // failed the sampling hash
	Swaps           uint64 `json:"swaps"`
	Busy            uint64 `json:"busy"`    // promotions deferred by backpressure
	Errors          uint64 `json:"errors"`  // promotions the engine rejected
	Ignored         uint64 `json:"ignored"` // batches beyond MaxSessions

	PerSession []SessionStatus `json:"per_session,omitempty"`
}

// SessionStatus is one tracked session's tuning state.
type SessionStatus struct {
	Session   uint64        `json:"session"`
	Incumbent core.Spec     `json:"incumbent"`
	Mirrored  uint64        `json:"mirrored"` // events since the last (re)build
	Swaps     uint64        `json:"swaps"`
	Shadows   []ShadowScore `json:"shadows"`
}

// ShadowScore is one shadow predictor's windowed standing. Index 0 of
// a session's shadows is always the incumbent's twin.
type ShadowScore struct {
	Spec          core.Spec `json:"spec"`
	SizeBits      int64     `json:"size_bits"`
	WindowLookups uint64    `json:"window_lookups"`
	WindowHits    uint64    `json:"window_hits"`
	Accuracy      float64   `json:"accuracy"`
	PerKbit       float64   `json:"per_kbit"` // accuracy per Kbit of state
}

// buildStatus renders the loop-owned state. Runs on the loop
// goroutine.
func (t *Tuner) buildStatus() Status {
	st := Status{
		Objective:       t.cfg.Objective,
		Sessions:        len(t.states),
		MirroredBatches: t.mirroredBatches.Load(),
		MirroredEvents:  t.mirroredEvents.Load(),
		Shed:            t.shed.Load(),
		Skipped:         t.skipped.Load(),
		Swaps:           t.swaps,
		Busy:            t.busy,
		Errors:          t.errors,
		Ignored:         t.ignored,
	}
	for id, ss := range t.states {
		s := SessionStatus{
			Session:   id,
			Incumbent: ss.incumbent,
			Mirrored:  ss.mirrored,
			Swaps:     ss.swaps,
		}
		results := ss.stream.Results()
		for i := range ss.specs {
			look := results[i].Predictions - ss.older[i].Predictions
			hits := results[i].Correct - ss.older[i].Correct
			sc := ShadowScore{
				Spec:          ss.specs[i],
				SizeBits:      ss.sizes[i],
				WindowLookups: look,
				WindowHits:    hits,
			}
			if look > 0 {
				sc.Accuracy = float64(hits) / float64(look)
				sc.PerKbit = sc.Accuracy * 1024 / float64(ss.sizes[i])
			}
			s.Shadows = append(s.Shadows, sc)
		}
		st.PerSession = append(st.PerSession, s)
	}
	sort.Slice(st.PerSession, func(i, j int) bool {
		return st.PerSession[i].Session < st.PerSession[j].Session
	})
	return st
}
