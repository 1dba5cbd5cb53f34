// Command dfcmsim reproduces the tables and figures of the DFCM paper
// (Goeman, Vandierendonck, De Bosschere, HPCA 2001) over this
// repository's benchmark suite.
//
// Usage:
//
//	dfcmsim list
//	dfcmsim run [-budget N] [-bench a,b,...] [-csv] [-j N] <id> [<id>...]
//	dfcmsim all [-budget N] [-bench a,b,...] [-j N]
//
// Experiment ids match DESIGN.md's per-experiment index (fig3,
// fig10a, table1, ...). The budget is the per-benchmark instruction
// count; the paper's equivalent is 200M, the default here is 1M.
// -j N runs up to N independent experiments concurrently; output is
// buffered per experiment and printed in request order, so stdout and
// -out artifacts are byte-identical to a sequential run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		if err := run("running", os.Args[2:], nil); err != nil {
			fatal(err)
		}
	case "all":
		if err := run("running", append(os.Args[2:], allIDs()...), nil); err != nil {
			fatal(err)
		}
	case "verify":
		if err := verify(os.Args[2:]); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// verify runs every experiment and fails if any qualitative check
// (the notes the experiments compute against the paper's claims)
// reports a deviation. This is the repository's one-command
// reproduction check.
func verify(args []string) error {
	var failures []string
	err := run("verifying", append(args, allIDs()...), func(res *experiments.Result) {
		for _, n := range res.Notes {
			if strings.Contains(n, "WARNING") {
				failures = append(failures, res.ID+": "+n)
			}
		}
	})
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "DEVIATION", f)
		}
		return fmt.Errorf("%d qualitative check(s) deviated from the paper", len(failures))
	}
	fmt.Printf("all %d experiments reproduce the paper's qualitative claims\n",
		len(experiments.All()))
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dfcmsim list
  dfcmsim run [-budget N] [-bench a,b] [-csv] [-out dir] [-j N] <id> [<id>...]
  dfcmsim all [-budget N] [-bench a,b] [-j N]
  dfcmsim verify [-budget N] [-j N]`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfcmsim:", err)
	os.Exit(1)
}

func list() {
	fmt.Printf("%-15s %-22s %s\n", "ID", "ARTIFACT", "TITLE")
	for _, e := range experiments.All() {
		fmt.Printf("%-15s %-22s %s\n", e.ID, e.Artifact, e.Title)
	}
}

func allIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// run runs the experiments whose ids follow the flags in args, up to
// -j at a time, logging "<verb> <id>" to stderr as each starts, and
// drains the results in id order. Each result prints to stdout (and
// -out) unless check is set: verify passes one to inspect the results
// instead.
func run(verb string, args []string, check func(*experiments.Result)) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	budget := fs.Uint64("budget", 0, "instructions per benchmark (0 = default 1M)")
	bench := fs.String("bench", "", "comma-separated benchmark subset (default: all eight)")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	outDir := fs.String("out", "", "also write <id>.txt and <id>.<n>.csv files into this directory")
	jobs := fs.Int("j", 1, "number of experiments to run concurrently")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment ids given (try 'dfcmsim list')")
	}
	cfg := experiments.Config{Budget: *budget}
	if *bench != "" {
		cfg.Benchmarks = strings.Split(*bench, ",")
	}
	type outcome struct {
		res *experiments.Result
		err error
	}
	outs := make([]outcome, len(ids))
	return inOrder(len(ids), *jobs, func(i int) {
		// Ids resolve lazily, as in the sequential loop: everything
		// before an unknown id still runs and prints.
		e, err := experiments.Get(ids[i])
		if err != nil {
			outs[i] = outcome{err: err}
			return
		}
		fmt.Fprintf(os.Stderr, "%s %s (%s)...\n", verb, e.ID, e.Artifact)
		res, err := e.Run(cfg)
		if err != nil {
			err = fmt.Errorf("%s: %w", ids[i], err)
		}
		outs[i] = outcome{res: res, err: err}
	}, func(i int) error {
		o := outs[i]
		if o.err != nil {
			return o.err
		}
		if check != nil {
			check(o.res)
			return nil
		}
		if *outDir != "" {
			if err := writeArtifacts(*outDir, o.res); err != nil {
				return err
			}
		}
		if *csv {
			for _, t := range o.res.Tables {
				fmt.Println("#", o.res.ID, t.Title)
				fmt.Print(t.CSV())
			}
			return nil
		}
		fmt.Println(o.res.String())
		return nil
	})
}

// inOrder runs work(i) for i in [0,n) with up to j concurrent workers
// and calls drain(i) strictly in index order as results complete, so
// everything written to stdout (and the -out directory) is
// byte-identical to the sequential j=1 run. Experiments share the
// process-wide trace cache, so concurrent runs coalesce trace
// generation instead of duplicating it. A drain error stops
// consumption; the process is about to exit, so in-flight workers are
// simply abandoned.
func inOrder(n, j int, work func(int), drain func(int) error) error {
	if j < 1 {
		j = 1
	}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	queue := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			queue <- i
		}
		close(queue)
	}()
	for w := 0; w < j; w++ {
		go func() {
			for i := range queue {
				work(i)
				close(done[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-done[i]
		if err := drain(i); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifacts stores the rendered result and per-table CSVs under
// dir for scripted artifact regeneration.
func writeArtifacts(dir string, res *experiments.Result) error {
	if err := os.WriteFile(filepath.Join(dir, res.ID+".txt"), []byte(res.String()), 0o644); err != nil {
		return err
	}
	for i, t := range res.Tables {
		name := fmt.Sprintf("%s.%d.csv", res.ID, i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
