package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches the fixture expectation marker: `// want <rule>`.
var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

type finding struct {
	line int
	rule string
}

// runFixture loads one testdata file under the given import path,
// runs a single analyzer through the full driver (so //lint:ignore
// filtering applies), and compares the surviving findings against the
// file's `// want <rule>` markers line by line.
func runFixture(t *testing.T, fixture, pkgPath string, a *Analyzer) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckSource(pkgPath, fixture, string(src))
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", fixture, err)
	}

	want := make(map[finding]bool)
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			want[finding{line: i + 1, rule: m[1]}] = true
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s seeds no violations — want markers missing", fixture)
	}

	got := make(map[finding]bool)
	for _, d := range Run([]*Package{pkg}, []*Analyzer{a}) {
		got[finding{line: d.Pos.Line, rule: d.Rule}] = true
	}

	for f := range want {
		if !got[f] {
			t.Errorf("%s:%d: expected %s finding not reported", fixture, f.line, f.rule)
		}
	}
	for f := range got {
		if !want[f] {
			t.Errorf("%s:%d: unexpected %s finding", fixture, f.line, f.rule)
		}
	}
}

func TestPredictPurityFixture(t *testing.T) {
	runFixture(t, "purity.go", "repro/internal/core", PredictPurity)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism.go", "repro/internal/core", Determinism)
}

func TestProtoBoundsFixture(t *testing.T) {
	runFixture(t, "protobounds.go", "repro/internal/serve", ProtoBounds)
}

func TestProtoBoundsSnapshotFixture(t *testing.T) {
	runFixture(t, "protobounds_snapshot.go", "repro/internal/snapshot", ProtoBounds)
}

func TestProtoBoundsClusterFixture(t *testing.T) {
	runFixture(t, "protobounds_cluster.go", "repro/internal/cluster", ProtoBounds)
}

func TestErrorDisciplineFixture(t *testing.T) {
	runFixture(t, "errcheck.go", "repro/cmd/fixture", ErrorDiscipline)
}

// TestErrorDisciplineClusterFixture: the same discipline binds the
// routing tier — the seeded cmd fixture must report identically under
// the internal/cluster import path.
func TestErrorDisciplineClusterFixture(t *testing.T) {
	runFixture(t, "errcheck.go", "repro/internal/cluster", ErrorDiscipline)
}

func TestProtoExhaustiveFixture(t *testing.T) {
	runFixture(t, "protoexhaustive.go", "repro/internal/serve", ProtoExhaustive)
}

// TestAnalyzersScopeToTheirPackages: the same violations outside the
// scoped packages must not be reported — the rules are invariants of
// specific layers, not global style.
func TestAnalyzersScopeToTheirPackages(t *testing.T) {
	cases := []struct {
		fixture string
		a       *Analyzer
	}{
		{"purity.go", PredictPurity},
		{"determinism.go", Determinism},
		{"protobounds.go", ProtoBounds},
		{"protobounds_snapshot.go", ProtoBounds},
		{"protobounds_cluster.go", ProtoBounds},
		{"errcheck.go", ErrorDiscipline},
		{"protoexhaustive.go", ProtoExhaustive},
	}
	for _, c := range cases {
		src, err := os.ReadFile(filepath.Join("testdata", c.fixture))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := CheckSource("repro/internal/elsewhere", c.fixture, string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.fixture, err)
		}
		if diags := Run([]*Package{pkg}, []*Analyzer{c.a}); len(diags) != 0 {
			t.Errorf("%s: %s reported %d finding(s) outside its scope, e.g. %s",
				c.fixture, c.a.ID, len(diags), diags[0])
		}
	}
}

// TestRunOrdersAndFormatsDiagnostics: driver output is sorted by
// position and formatted file:line:col: rule: message.
func TestRunOrdersAndFormatsDiagnostics(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "errcheck.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckSource("repro/cmd/fixture", "errcheck.go", string(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	if !sort.SliceIsSorted(diags, func(i, j int) bool { return diags[i].Pos.Line < diags[j].Pos.Line }) {
		t.Error("diagnostics not sorted by line")
	}
	for _, d := range diags {
		want := fmt.Sprintf("errcheck.go:%d:%d: %s: ", d.Pos.Line, d.Pos.Column, d.Rule)
		if !strings.HasPrefix(d.String(), want) {
			t.Errorf("diagnostic %q does not start with %q", d.String(), want)
		}
	}
}

func TestByID(t *testing.T) {
	all, err := ByID("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByID(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByID("determinism, proto-bounds")
	if err != nil || len(two) != 2 || two[0].ID != "determinism" || two[1].ID != "proto-bounds" {
		t.Fatalf("ByID pair = %v, err %v", two, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID(nope) succeeded")
	}
}
