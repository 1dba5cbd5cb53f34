package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// serveSpec is the predictor every served workload runs: the paper's
// DFCM with 2^10 level-1 and 2^10 level-2 entries.
var serveSpec = core.Spec{Kind: "dfcm", L1: 10, L2: 10}

// traceBudget is the per-benchmark instruction budget of every VM
// trace the benchmark generates — the experiments' default.
const traceBudget = 1_000_000

// workloads maps each workload name to its set-up, which generates the
// inputs from the seed and starts the stack that serves them.
var workloads = map[string]func(seed int64) (env, error){
	"repro":         setupRepro,
	"serve-bulk":    setupBulk,
	"serve-chatty":  setupChatty,
	"cluster-mixed": setupCluster,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// env is a set-up workload: generated inputs, their offline reference
// and the running stack.
type env interface {
	// round runs one deterministic round of ops, checking each against
	// the reference. Every round starts from the same state, so rounds
	// are identical work. An error means the stack itself broke.
	round(t *tally, rec *recorder) error
	// ladder returns the frames the layer ladder replays and whether
	// they are split PredictBatch/UpdateBatch pairs.
	ladder() (frames [][]trace.Event, split bool)
	// counters reads the serving stack's counters (zero without one).
	counters() counters
	// inputDigest identifies the generated inputs.
	inputDigest() string
	close()
}

// counters are the engine and router counts a traced run reports.
type counters struct {
	served        bool
	dropped       uint64 // frames shed by engine backpressure
	forwarded     uint64 // frames forwarded by a router
	forwardErrors uint64
	migrations    uint64
}

// tally accumulates one goroutine's (or one phase's) outcomes.
type tally struct {
	ops, failed  int64
	hits, judged uint64
	lat          hist // client-observed latency per op
	migrate      hist // MigrateSession latency
	queueMax     int
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.hits += o.hits
	t.judged += o.judged
	t.lat.add(&o.lat)
	t.migrate.add(&o.migrate)
	if o.queueMax > t.queueMax {
		t.queueMax = o.queueMax
	}
}

// parallel runs fn on n goroutines, each with its own tally, waits
// for all of them and merges their tallies into t. It returns the
// first error.
func parallel(n int, t *tally, fn func(i int, t *tally) error) error {
	tallies := make([]tally, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, &tallies[i])
		}(i)
	}
	wg.Wait()
	for i := range tallies {
		t.add(&tallies[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newRand returns the seeded generator every input is drawn from.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// frames splits events into consecutive frames of n events (the last
// one possibly shorter).
func frames(events []trace.Event, n int) [][]trace.Event {
	var out [][]trace.Event
	for len(events) > 0 {
		k := n
		if k > len(events) {
			k = len(events)
		}
		out = append(out, events[:k:k])
		events = events[k:]
	}
	return out
}

// window returns n events of tr starting at off, wrapping around.
func window(tr trace.Trace, off, n int) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = tr[(off+i)%len(tr)]
	}
	return out
}

// digestEvents hashes event streams for the input log line.
func digestEvents(streams ...[]trace.Event) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range streams {
		for _, e := range s {
			binary.LittleEndian.PutUint32(b[:4], e.PC)
			binary.LittleEndian.PutUint32(b[4:], e.Value)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recorder keeps the spans of a traced run in memory until the run
// writes them out. A nil recorder records nothing.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span // vplint:guardedby mu
	dropped int    // vplint:guardedby mu
	next    int32  // vplint:guardedby mu
}

// span is one timed call into a layer. Parent is -1 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span log; spans beyond it are counted, not kept.
const maxSpans = 1 << 18

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// open reserves a span ID, so child spans can name their parent
// before the parent ends.
func (r *recorder) open() int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records the finished span id.
func (r *recorder) add(id, parent int32, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// leaf records a span with no children.
func (r *recorder) leaf(parent int32, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(r.open(), parent, name, start, end)
}
