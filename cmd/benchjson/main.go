// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON snapshot: benchmark name → median ns/op, its
// interquartile range and sample count over repeated runs (-count N),
// and allocs/op when the run used -benchmem. `make bench` uses it to
// regenerate BENCH_engine.json, the checked-in record of the
// benchmarks' ns/op and allocs/op.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . | benchjson \
//	    -o BENCH_engine.json \
//	    -cmd 'go test -bench . -benchtime 1x -benchmem .' \
//	    -zero BenchmarkEngineReplay
//
// Each -zero NAME (repeatable) asserts the named benchmark is present
// in the input and reported exactly 0 allocs/op; any violation is a
// non-zero exit, making `make bench` a CI gate against allocation
// regressions on the zero-alloc steady-state paths.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements: the median ns/op over its
// samples, the interquartile range of those samples (0 for a single
// sample), the sample count, and the largest allocs/op any sample
// reported.
type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	NsIQR       float64  `json:"ns_iqr"`
	Samples     int      `json:"samples"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// snapshot is the emitted document.
type snapshot struct {
	Command    string            `json:"command,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// zeroFlags collects repeated -zero NAME flags.
type zeroFlags []string

func (z *zeroFlags) String() string { return strings.Join(*z, ",") }

func (z *zeroFlags) Set(v string) error {
	*z = append(*z, v)
	return nil
}

// gomaxprocsSuffix is the -N the testing package appends to benchmark
// names when GOMAXPROCS > 1; stripped so snapshots compare across
// machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts per-benchmark measurements from `go test -bench`
// output. Non-benchmark lines (goos/pkg headers, PASS, ok) are
// ignored. A benchmark appearing more than once (-count=N) merges to
// the median ns/op with the interquartile range as its spread — a
// shared machine's noise shows in the IQR instead of being hidden by
// a best-case minimum — and to the maximum allocs/op, so the -zero
// gate fails if any run allocated.
func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		ns, allocs := -1.0, -1.0
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad measurement %q: %v", name, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 {
			continue
		}
		samples[name] = append(samples[name], ns)
		res := out[name]
		if allocs >= 0 && (res.AllocsPerOp == nil || allocs > *res.AllocsPerOp) {
			res.AllocsPerOp = &allocs
		}
		out[name] = res
	}
	for name, ns := range samples {
		sort.Float64s(ns)
		res := out[name]
		res.NsPerOp = quantile(ns, 0.5)
		res.NsIQR = quantile(ns, 0.75) - quantile(ns, 0.25)
		res.Samples = len(ns)
		out[name] = res
	}
	return out, sc.Err()
}

// quantile returns the p-quantile of the sorted, non-empty xs by
// linear interpolation between closest ranks, so the median of an
// even count is the mean of the middle two samples.
func quantile(xs []float64, p float64) float64 {
	h := p * float64(len(xs)-1)
	i := int(h)
	if i+1 >= len(xs) {
		return xs[i]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

func run(in io.Reader, out io.Writer, cmd string, zeros zeroFlags) error {
	benches, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	for _, name := range zeros {
		b, ok := benches[name]
		if !ok {
			return fmt.Errorf("-zero %s: benchmark not in input", name)
		}
		if b.AllocsPerOp == nil {
			return fmt.Errorf("-zero %s: no allocs/op in input (run with -benchmem)", name)
		}
		if *b.AllocsPerOp != 0 {
			return fmt.Errorf("-zero %s: %g allocs/op, want 0 — allocation regression on a zero-alloc steady-state path", name, *b.AllocsPerOp)
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(snapshot{Command: cmd, Benchmarks: benches})
}

func main() {
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	cmd := flag.String("cmd", "", "record the command that produced the input")
	var zeros zeroFlags
	flag.Var(&zeros, "zero", "NAME: fail unless the benchmark is present with exactly 0 allocs/op (repeatable)")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := run(os.Stdin, out, *cmd, zeros); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
