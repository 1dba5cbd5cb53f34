package main

import (
	"testing"

	"repro/internal/experiments"
)

func TestAllIDsMatchRegistry(t *testing.T) {
	ids := allIDs()
	if len(ids) != len(experiments.All()) {
		t.Fatalf("allIDs has %d entries, registry %d", len(ids), len(experiments.All()))
	}
	for _, id := range ids {
		if _, err := experiments.Get(id); err != nil {
			t.Errorf("id %q not resolvable: %v", id, err)
		}
	}
}

func TestRunRejectsNoIDs(t *testing.T) {
	if err := run("running", []string{"-budget", "1000"}, nil); err == nil {
		t.Error("run with no ids should error")
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	if err := run("running", []string{"frobnicate"}, nil); err == nil {
		t.Error("unknown id should error")
	}
}

func TestRunExecutesExperiment(t *testing.T) {
	// fig4 is pure (no benchmark traces), so this is fast.
	if err := run("running", []string{"-budget", "1000", "fig4"}, nil); err != nil {
		t.Errorf("run fig4: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run("running", []string{"-budget", "1000", "-csv", "fig8"}, nil); err != nil {
		t.Errorf("run -csv fig8: %v", err)
	}
}

func TestRunBenchSubset(t *testing.T) {
	if err := run("running", []string{"-budget", "20000", "-bench", "li", "table1"}, nil); err != nil {
		t.Errorf("run table1 subset: %v", err)
	}
}
