package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// checkpointName is the per-session file name. The fixed-width hex ID
// keeps directory listings sorted by session.
func checkpointName(id uint64) string {
	return fmt.Sprintf("session-%016x.vps", id)
}

// parseCheckpointName inverts checkpointName.
func parseCheckpointName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "session-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".vps")
	if !ok || len(rest) != 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 16, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// newRestoredSession builds a session around a predictor restored from
// a snapshot, resuming the lifetime counters where the snapshot left
// off. override, when non-nil, records the session's own canonical
// spec (a hot-swapped or spec-adopted session); nil means the engine's
// Config.Spec.
func newRestoredSession(p core.Snapshotter, meta snapshot.Meta, override *core.Spec) *session {
	sess := &session{p: p}
	sess.predictions.Store(meta.Predictions)
	sess.hits.Store(meta.Hits)
	sess.updates.Store(meta.Updates)
	if override != nil {
		ov := override.Canonical()
		sess.spec.Store(&ov)
	}
	return sess
}

// specOf returns the spec that built a session's predictor: its
// override (hot-swapped or adopted) when it has one, the engine's
// otherwise.
func (e *Engine) specOf(sess *session) core.Spec {
	if ov := sess.spec.Load(); ov != nil {
		return *ov
	}
	return e.cfg.Spec
}

// admitSnapshot is the one restore admission rule, shared by the wire
// RestoreSession op and the LoadCheckpoints warm start: it decides
// whether snap may become session id on this engine and builds the
// session if so. A snapshot under a different canonical spec is
// StatusSpecMismatch unless the engine adopts snapshot specs, in which
// case the session is rebuilt under the snapshot's own spec, recorded
// as its override. A nonzero meta session that disagrees with id, or
// state that does not restore, is StatusBadRequest.
func (e *Engine) admitSnapshot(id uint64, snap *snapshot.Snapshot) (*session, Status) {
	var override *core.Spec
	if got := snap.Spec.Canonical(); got != e.cfg.Spec.Canonical() {
		if !e.cfg.AdoptSnapshotSpecs {
			return nil, StatusSpecMismatch
		}
		override = &got
	}
	if snap.Meta.Session != 0 && snap.Meta.Session != id {
		return nil, StatusBadRequest
	}
	p, err := snap.Restore()
	if err != nil {
		return nil, StatusBadRequest
	}
	return newRestoredSession(p, snap.Meta, override), StatusOK
}

// captureSession freezes one live session. Runs under the shard lock,
// so the predictor state and counters are a consistent point-in-time
// view with no request in flight. A session carrying a
// spec override (hot-swapped by the autotuner) is captured under that
// spec — its snapshot describes the predictor actually serving, so a
// warm restart rebuilds the swapped configuration.
func (e *Engine) captureSession(id uint64, sess *session) (*snapshot.Snapshot, error) {
	return snapshot.Capture(e.specOf(sess), sess.p, snapshot.Meta{
		Session:     id,
		Predictions: sess.predictions.Load(),
		Hits:        sess.hits.Load(),
		Updates:     sess.updates.Load(),
	})
}

// restore installs a restored session on shard s, whose lock the
// caller holds. The warm start (LoadCheckpoints) passes replace=false:
// a session that is already live wins over the disk copy, which is
// older by construction. The wire RestoreSession op passes
// replace=true, because an explicit restore (a migration push) is
// authoritative. The session cap applies to new sessions either way.
// The engine totals are sums over the sessions, so they continue from
// the restored lifetime counters.
func (e *Engine) restore(s *shard, id uint64, sess *session, replace bool) Status {
	_, st := e.install(s, id, sess, replace)
	if st == StatusOK {
		e.restored.Add(1)
	}
	return st
}

// CheckpointAll captures every live session and writes one snapshot
// file per session into CheckpointDir (atomically, via temp file and
// rename). It returns the number of files written and the first write
// error; failed sessions are counted in Stats.CheckpointErrors and do
// not block the rest of the sweep. Safe to call concurrently with
// traffic — each shard pauses only for its in-memory capture.
func (e *Engine) CheckpointAll() (written int, err error) {
	if e.cfg.CheckpointDir == "" {
		return 0, fmt.Errorf("serve: checkpointing disabled (no CheckpointDir)")
	}
	for _, s := range e.shards {
		// Capture takes the shard lock directly, bypassing the closed
		// gate and the shed: it is rare, must not be dropped, and the
		// drain checkpoint runs after Close. File I/O runs after the
		// lock is released, so the shard returns to serving as soon as
		// the in-memory copies exist.
		s.mu.Lock()
		snaps := make([]*snapshot.Snapshot, 0, len(s.sessions))
		for id, sess := range s.sessions {
			snap, cerr := e.captureSession(id, sess)
			if cerr != nil {
				e.checkpointErrors.Add(1)
				continue
			}
			snaps = append(snaps, snap)
		}
		s.mu.Unlock()
		for _, snap := range snaps {
			path := filepath.Join(e.cfg.CheckpointDir, checkpointName(snap.Meta.Session))
			if werr := snapshot.WriteFile(path, snap); werr != nil {
				e.checkpointErrors.Add(1)
				if err == nil {
					err = werr
				}
				continue
			}
			written++
		}
	}
	e.checkpoints.Add(1)
	return written, err
}

// checkpointLoop runs the periodic background checkpoints until Close
// stops it.
func (e *Engine) checkpointLoop(interval time.Duration) {
	defer e.ckptWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Errors are counted in CheckpointErrors and surface in
			// Stats; the loop keeps trying on the next tick.
			_, _ = e.CheckpointAll()
		case <-e.ckptQuit:
			return
		}
	}
}

// LoadCheckpoints warm-starts the engine from CheckpointDir: every
// readable session-<id>.vps file that admitSnapshot accepts for that
// id — spec matched canonically, or adopted; meta session agreeing
// with the file name — becomes a live session with its predictor
// state and lifetime counters intact. Unreadable, refused or
// unrestorable files are skipped and counted, not fatal: a warm start
// must never be worse than a cold one. Call before serving traffic;
// restored sessions count in Stats.Restored.
func (e *Engine) LoadCheckpoints() (restored, skipped int, err error) {
	dir := e.cfg.CheckpointDir
	if dir == "" {
		return 0, 0, fmt.Errorf("serve: checkpointing disabled (no CheckpointDir)")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ent := range ents {
		id, ok := parseCheckpointName(ent.Name())
		if !ok || ent.IsDir() {
			continue // not ours; leave it alone
		}
		snap, rerr := snapshot.ReadFile(filepath.Join(dir, ent.Name()))
		if rerr != nil {
			skipped++
			continue
		}
		sess, st := e.admitSnapshot(id, snap)
		if st != StatusOK {
			skipped++
			continue
		}
		// Like capture, the boot restore takes the shard lock directly.
		s := e.shards[e.shardFor(id)]
		s.mu.Lock()
		st = e.restore(s, id, sess, false)
		s.mu.Unlock()
		if st != StatusOK {
			skipped++
			continue
		}
		restored++
	}
	return restored, skipped, nil
}
