package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig9 	       1	   9367785 ns/op	 3377848 B/op	     341 allocs/op
BenchmarkFig6-8 	       1	   4075381 ns/op	 1153936 B/op	     187 allocs/op
BenchmarkPredictFCM 	       1	      1523 ns/op
BenchmarkEngineReplay 	       5	   1104612 ns/op	       0 B/op	       0 allocs/op
BenchmarkRepeated 	     100	      2000 ns/op	      16 B/op	       2 allocs/op
BenchmarkRepeated 	     100	      1500 ns/op	       0 B/op	       0 allocs/op
BenchmarkRepeated 	     100	      1800 ns/op	       8 B/op	       1 allocs/op
BenchmarkSimulator 	       1	   2856997 ns/op	     59342 events/run	 2520800 B/op	      34 allocs/op
PASS
ok  	repro	3.019s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6: %v", len(got), got)
	}
	rep := got["BenchmarkRepeated"]
	if rep.NsPerOp != 1800 || rep.Samples != 3 {
		t.Errorf("repeated counts should merge to median ns/op over 3 samples, got %+v", rep)
	}
	if rep.AllocsPerOp == nil || *rep.AllocsPerOp != 2 {
		t.Errorf("repeated counts should merge to max allocs/op, got %v", rep.AllocsPerOp)
	}
	fig9 := got["BenchmarkFig9"]
	if fig9.NsPerOp != 9367785 {
		t.Errorf("Fig9 ns/op = %v, want 9367785", fig9.NsPerOp)
	}
	if fig9.AllocsPerOp == nil || *fig9.AllocsPerOp != 341 {
		t.Errorf("Fig9 allocs/op = %v, want 341", fig9.AllocsPerOp)
	}
	if _, ok := got["BenchmarkFig6"]; !ok {
		t.Errorf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if p := got["BenchmarkPredictFCM"]; p.AllocsPerOp != nil {
		t.Errorf("no -benchmem columns should mean no allocs/op, got %v", *p.AllocsPerOp)
	}
	if s := got["BenchmarkSimulator"]; s.NsPerOp != 2856997 {
		t.Errorf("custom-metric line misparsed: %+v", s)
	}
}

// TestMedianAndIQR: repeated counts merge to the median ns/op and the
// interquartile range (linear interpolation between closest ranks),
// for odd and even counts; one sample is its own median with no
// spread.
func TestMedianAndIQR(t *testing.T) {
	cases := []struct {
		name     string
		ns       []string
		median   float64
		iqr      float64
		nsamples int
	}{
		{"single sample", []string{"700"}, 700, 0, 1},
		{"odd count", []string{"50", "10", "40", "20", "30"}, 30, 20, 5},
		{"even count", []string{"40", "10", "30", "20"}, 25, 15, 4},
	}
	for _, tc := range cases {
		var in strings.Builder
		for _, ns := range tc.ns {
			in.WriteString("BenchmarkX-2 \t 100 \t " + ns + " ns/op \t 0 B/op \t 0 allocs/op\n")
		}
		got, err := parseBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		x := got["BenchmarkX"]
		if x.NsPerOp != tc.median || x.NsIQR != tc.iqr || x.Samples != tc.nsamples {
			t.Errorf("%s: got median %v IQR %v samples %d, want %v %v %d",
				tc.name, x.NsPerOp, x.NsIQR, x.Samples, tc.median, tc.iqr, tc.nsamples)
		}
	}
}

func TestRunEmitsSnapshot(t *testing.T) {
	var sb strings.Builder
	if err := run(strings.NewReader(sampleOutput), &sb, "go test -bench .", nil); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Command != "go test -bench ." {
		t.Errorf("command = %q", snap.Command)
	}
	if fig9 := snap.Benchmarks["BenchmarkFig9"]; fig9.NsPerOp != 9367785 {
		t.Errorf("BenchmarkFig9 = %+v, want 9367785 ns/op", fig9)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(strings.NewReader("PASS\n"), &sb, "", nil); err == nil {
		t.Error("empty input: want error")
	}
}

// TestZeroGate: -zero passes only for a present benchmark measured at
// exactly 0 allocs/op; absence, missing -benchmem columns, and any
// nonzero count all fail the run.
func TestZeroGate(t *testing.T) {
	cases := []struct {
		name string
		zero string
		ok   bool
	}{
		{"zero allocs passes", "BenchmarkEngineReplay", true},
		{"nonzero allocs fails", "BenchmarkFig9", false},
		{"missing benchmark fails", "BenchmarkNope", false},
		{"no benchmem columns fails", "BenchmarkPredictFCM", false},
	}
	for _, tc := range cases {
		var sb strings.Builder
		err := run(strings.NewReader(sampleOutput), &sb, "", zeroFlags{tc.zero})
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}
