// Command vpbench is the repository's end-to-end benchmark. One run
// drives one workload through the public Go API of the layers it
// exercises — the offline experiment suite, or an in-process
// serve.Server / cluster.Router stack on loopback listeners — for a
// fixed time, checks every result against an offline reference, and
// prints one JSON object as its last line of standard output.
//
//	go run . -workload serve-bulk -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the object holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run, and the span log is
// written to spansPath. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setups is the number of set-ups per run; setup_s is their median.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var recordDigests string
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase; 0 runs exactly one round")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced layer ladder and prints per-layer metrics")
	fs.StringVar(&recordDigests, "record-digests", "", "run the repro experiments once and write their output digests to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if recordDigests != "" {
		if err := writeDigests(recordDigests); err != nil {
			fmt.Fprintln(stderr, "vpbench:", err)
			return 1
		}
		return 0
	}
	setup, ok := workloads[o.workload]
	if !ok || o.seconds < 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "vpbench: need -workload (%s), -seconds >= 0, -trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = traceFlag == 1
	res, err := runWorkload(setup, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spansPath is where a traced run writes its span log, relative to
// the working directory.
func spansPath(workload string, seed int64) string {
	return fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", workload, seed)
}

// runWorkload sets the workload up setups times (keeping the last
// environment), then runs the untraced timed phase, or for -trace 1
// the untraced and traced halves plus the layer ladder.
//
// Each set-up is timed from its own start. Only the first pays the
// process's one-time work (runtime start, program assembly), so the
// median is in effect a warm re-set-up.
func runWorkload(setup func(seed int64) (env, error), o options, stderr io.Writer) (*result, error) {
	var setupTimes []float64
	var e env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			// Collect the last set-up's garbage so every set-up starts
			// from a heap without it and the RSS peak does not depend
			// on when the collector last ran.
			runtime.GC()
		}
		start := time.Now()
		var err error
		e, err = setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.close()
	fmt.Fprintf(stderr, "vpbench: %s seed=%d inputs sha256=%s\n", o.workload, o.seed, e.inputDigest())

	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		ph, err := timedPhase(e, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.tally.ops, ph.tally.failed
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["ops_per_s"] = metric{ph.opsPerSec(), "1/s"}
		res.Metrics["cpu_us_per_op"] = metric{ph.cpuPerOp(), "us"}
		res.Metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
	} else {
		if err := tracedRun(e, o, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// phase is one timed phase's outcome. Rates are medians over windows
// of whole rounds, so a burst of interference from outside the process
// moves a few windows, not the reported figure.
type phase struct {
	tally  tally
	rates  []float64 // ops per wall second, per window
	cpuPer []float64 // CPU microseconds per op, per window
}

func (p phase) opsPerSec() float64 { return median(p.rates) }
func (p phase) cpuPerOp() float64  { return median(p.cpuPer) }

// rateWindow is the shortest span of whole rounds one rate sample covers.
const rateWindow = 100 * time.Millisecond

// timedPhase runs whole rounds until seconds have elapsed (at least
// one round), so every phase is a whole number of identical rounds.
func timedPhase(e env, seconds float64, rec *recorder) (phase, error) {
	var p phase
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	wStart, wCPU, wOps := start, cpuTime(), int64(0)
	for {
		if err := e.round(&p.tally, rec); err != nil {
			return p, err
		}
		now := time.Now()
		done := now.Sub(start) >= limit
		if w := now.Sub(wStart); w >= rateWindow || done {
			n := p.tally.ops - wOps
			cpu := cpuTime()
			p.rates = append(p.rates, float64(n)/w.Seconds())
			p.cpuPer = append(p.cpuPer, float64((cpu-wCPU).Nanoseconds())/1e3/float64(n))
			wStart, wCPU, wOps = now, cpu, p.tally.ops
		}
		if done {
			break
		}
	}
	if p.tally.ops == 0 {
		return p, fmt.Errorf("timed phase completed no ops")
	}
	return p, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
