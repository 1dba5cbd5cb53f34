// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON snapshot: benchmark name → ns/op (and allocs/op when
// the run used -benchmem). `make bench` uses it to regenerate
// BENCH_engine.json, the checked-in record of the benchmarks' ns/op
// and allocs/op.
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
	"strconv"
	"strings"
)

// result is one benchmark's measurements.
type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
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
// the minimum ns/op — the standard noise-robust statistic on a shared
// machine — and the maximum allocs/op, so the -zero gate fails if any
// run allocated.
func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var res result
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad measurement %q: %v", name, fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen = true
			case "allocs/op":
				a := v
				res.AllocsPerOp = &a
			}
		}
		if !seen {
			continue
		}
		if prev, ok := out[name]; ok {
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp != nil && (res.AllocsPerOp == nil || *prev.AllocsPerOp > *res.AllocsPerOp) {
				res.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[name] = res
	}
	return out, sc.Err()
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
