package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run("running", []string{"-budget", "1000", "-out", dir, "fig4"}, nil); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fig4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "fig4") {
		t.Error("artifact text missing experiment id")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig4.0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), ",") {
		t.Error("csv artifact looks wrong")
	}
}

func TestParallelRunByteIdentical(t *testing.T) {
	ids := []string{"fig4", "fig10a", "fig17", "table1"}
	seq, par := t.TempDir(), t.TempDir()
	if err := run("running", append([]string{"-budget", "1000", "-out", seq}, ids...), nil); err != nil {
		t.Fatal(err)
	}
	if err := run("running", append([]string{"-budget", "1000", "-j", "4", "-out", par}, ids...), nil); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no artifacts written")
	}
	for _, f := range names {
		a, err := os.ReadFile(filepath.Join(seq, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(par, f.Name()))
		if err != nil {
			t.Fatalf("artifact %s missing from -j 4 run: %v", f.Name(), err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between -j 1 and -j 4 runs", f.Name())
		}
	}
}

func TestVerifySmallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// A reduced-budget, reduced-suite verify must still pass every
	// qualitative check (the claims are scale-independent).
	if err := verify([]string{"-budget", "150000", "-bench", "li,ijpeg,m88ksim,go"}); err != nil {
		t.Fatal(err)
	}
}
