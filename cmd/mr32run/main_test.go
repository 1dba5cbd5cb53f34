package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/vm"
)

// runExample assembles and executes one of the shipped MR32 example
// programs and returns its stdout.
func runExample(t *testing.T, name string, budget uint64) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "mr32", name))
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := vm.New(p, false)
	if err := c.Run(budget); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return string(c.Stdout)
}

func TestFibExample(t *testing.T) {
	out := runExample(t, "fib.s", 0)
	if !strings.Contains(out, "fib(20) = 6765") {
		t.Errorf("fib output: %q", out)
	}
}

func TestSieveExample(t *testing.T) {
	out := runExample(t, "sieve.s", 0)
	if !strings.Contains(out, "primes below 10000: 1229") {
		t.Errorf("sieve output: %q", out)
	}
}

func TestHanoiExample(t *testing.T) {
	out := runExample(t, "hanoi.s", 0)
	if !strings.Contains(out, "moves: 65535") {
		t.Errorf("hanoi output: %q", out)
	}
}
