// Command mr32run assembles and executes an MR32 assembly program on
// the functional simulator, printing its output and, optionally,
// execution statistics or its value trace.
//
// Usage:
//
//	mr32run prog.s
//	mr32run -budget 100000 -stats prog.s
//	mr32run -dump-trace out.vtr prog.s
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	budget := flag.Uint64("budget", 0, "instruction budget (0 = unlimited)")
	stats := flag.Bool("stats", false, "print execution statistics")
	dump := flag.String("dump-trace", "", "write the value trace to this VTR1 file")
	disasm := flag.Bool("disasm", false, "print the assembled text segment and exit")
	profile := flag.Int("profile", 0, "after the run, print the N hottest instructions")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mr32run [-budget N] [-stats] [-dump-trace f] prog.s")
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// Accept both assembly source and pre-assembled MRX1 objects
	// (produced by cmd/mr32asm).
	var p *asm.Program
	if bytes.HasPrefix(src, []byte("MRX1")) {
		p, err = asm.ReadProgram(bytes.NewReader(src))
	} else {
		p, err = asm.Assemble(string(src))
	}
	if err != nil {
		fatal(err)
	}

	if *disasm {
		for i, w := range p.Text {
			pc := uint32(isa.TextBase + 4*i)
			fmt.Printf("%08x:  %08x  %s\n", pc, w, isa.Disassemble(pc, w))
		}
		return
	}

	// The CPU keeps its trace events only when they are to be dumped.
	c := vm.New(p, *dump != "")
	if *profile > 0 {
		c.EnableProfile(len(p.Text))
	}
	err = c.Run(*budget)
	if _, werr := os.Stdout.Write(c.Stdout); werr != nil {
		fatal(werr)
	}
	if err != nil && err != vm.ErrBudget {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "executed:  %d instructions\n", c.Executed)
		fmt.Fprintf(os.Stderr, "predicted: %d register-producing instructions\n", c.Emitted)
		if err == vm.ErrBudget {
			fmt.Fprintln(os.Stderr, "stopped:   instruction budget expired")
		} else {
			fmt.Fprintln(os.Stderr, "stopped:   clean exit")
		}
	}
	if *profile > 0 {
		printProfile(p, c, *profile)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr := c.Events()
		if err := trace.Write(f, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace:     %d events -> %s\n", len(tr), *dump)
	}
}

// printProfile lists the n most executed instructions with their
// disassembly and share of all executed instructions.
func printProfile(p *asm.Program, c *vm.CPU, n int) {
	type hot struct {
		idx   int
		count uint64
	}
	var hots []hot
	for i, cnt := range c.Profile() {
		if cnt > 0 {
			hots = append(hots, hot{idx: i, count: cnt})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].count > hots[j].count })
	if n > len(hots) {
		n = len(hots)
	}
	fmt.Fprintf(os.Stderr, "hottest %d of %d executed instructions:\n", n, len(hots))
	for _, h := range hots[:n] {
		pc := uint32(isa.TextBase + 4*h.idx)
		fmt.Fprintf(os.Stderr, "  %08x %12d (%5.1f%%)  %s\n",
			pc, h.count, 100*float64(h.count)/float64(c.Executed),
			isa.Disassemble(pc, p.Text[h.idx]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mr32run:", err)
	os.Exit(1)
}
