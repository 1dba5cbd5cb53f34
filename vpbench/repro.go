package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/progs"
	"repro/internal/trace"
)

// reproIDs are the experiments the benchmark checks and times: the
// figures that put the most time in the DFCM/FCM/delayed/TAGE kernels
// and the sweep engine. The traced run times each one.
var reproIDs = []string{"fig10a", "fig11a", "fig12", "fig17", "ext-tage"}

// reproPass is the repro workload's round: the three shortest of
// reproIDs, about 2 s together on 2 cores, so a run holds enough
// rounds for a median.
var reproPass = []string{"fig10a", "fig12", "fig17"}

// digestsFile holds the sha256 of each reproIDs experiment's rendered
// Result at the default budget, recorded with -record-digests.
//
//go:embed digests.txt
var digestsFile string

func parseDigests() (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(digestsFile))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			out[f[0]] = f[1]
		}
	}
	for _, id := range reproIDs {
		if out[id] == "" {
			return nil, fmt.Errorf("digests.txt has no digest for %s", id)
		}
	}
	return out, nil
}

func digestResult(r *experiments.Result) string {
	sum := sha256.Sum256([]byte(r.String()))
	return hex.EncodeToString(sum[:])
}

// writeDigests records the digests the repro checks compare against.
func writeDigests(path string) error {
	var b strings.Builder
	for _, id := range reproIDs {
		exp, err := experiments.Get(id)
		if err != nil {
			return err
		}
		res, err := exp.Run(experiments.Config{})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(&b, "%s %s\n", id, digestResult(res))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// reproEnv runs the paper reproduction offline: one op is one
// experiment run, and one round is one pass over reproPass in a
// seed-permuted order.
type reproEnv struct {
	order   []string
	exps    map[string]experiments.Experiment
	digests map[string]string
	seed    int64
}

func setupRepro(seed int64) (env, error) {
	digests, err := parseDigests()
	if err != nil {
		return nil, err
	}
	e := &reproEnv{exps: map[string]experiments.Experiment{}, digests: digests, seed: seed}
	for _, id := range reproPass {
		exp, err := experiments.Get(id)
		if err != nil {
			return nil, err
		}
		e.exps[id] = exp
	}
	for _, i := range newRand(seed, 0).Perm(len(reproPass)) {
		e.order = append(e.order, reproPass[i])
	}
	// A cold cache per set-up: every set-up pays the VM trace
	// generation for all eight SPEC stand-ins that a fresh process
	// pays, in its warm-up round.
	experiments.ResetCache()
	return e, warmUp(e)
}

// runChecked runs one experiment and reports whether its output
// matches the recorded digest with no WARNING note.
func (e *reproEnv) runChecked(id string, parent int32, rec *recorder) bool {
	start := time.Now()
	res, err := e.exps[id].Run(experiments.Config{})
	rec.leaf(parent, "experiments."+id, start, time.Now())
	if err != nil {
		return false
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "WARNING") {
			return false
		}
	}
	return digestResult(res) == e.digests[id]
}

func (e *reproEnv) round(t *tally, rec *recorder) error {
	rid := rec.open()
	rstart := time.Now()
	for _, id := range e.order {
		start := time.Now()
		ok := e.runChecked(id, rid, rec)
		t.lat.record(time.Since(start))
		t.ops++
		if !ok {
			t.failed++
		}
	}
	rec.add(rid, -1, "repro.pass", rstart, time.Now())
	return nil
}

// ladder replays one seed-chosen benchmark trace in serve-bulk frames:
// repro serves nothing itself, so its traced run measures the serving
// layers on the same frame shape as serve-bulk.
func (e *reproEnv) ladder() ([][]trace.Event, bool) {
	names := progs.SPECNames()
	tr, err := progs.TraceFor(names[newRand(e.seed, 1).Intn(len(names))], traceBudget)
	if err != nil || len(tr) == 0 {
		return nil, false
	}
	return frames(window(tr, 0, ladderFrames*bulkFrame), bulkFrame), false
}

func (e *reproEnv) counters() counters { return counters{} }

func (e *reproEnv) inputDigest() string {
	sum := sha256.Sum256([]byte(strings.Join(e.order, ",")))
	return hex.EncodeToString(sum[:])[:16]
}

// close drops the experiments' trace cache, so the next set-up's heap
// does not hold this one's traces.
func (e *reproEnv) close() { experiments.ResetCache() }
