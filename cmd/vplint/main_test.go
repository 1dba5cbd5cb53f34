package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway Go module for the linter to
// chew on. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const dirtyMain = `package main

import "os"

func main() {
	f, err := os.Create("x")
	if err != nil {
		return
	}
	f.Close()
}
`

func TestFindingsExitNonZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": dirtyMain})
	var out, errOut bytes.Buffer
	code := run([]string{"-C", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "error-discipline") || !strings.Contains(out.String(), "main.go:10") {
		t.Errorf("finding not reported as file:line rule: %q", out.String())
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": `package main

func main() {}
`})
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0; out: %s stderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree printed findings: %q", out.String())
	}
}

func TestSuppressedFindingExitsZero(t *testing.T) {
	src := strings.Replace(dirtyMain, "\tf.Close()",
		"\t//lint:ignore error-discipline test: close error is unobservable here\n\tf.Close()", 1)
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": src})
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0; out: %s", code, out.String())
	}
}

func TestRuleSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": dirtyMain})
	var out, errOut bytes.Buffer
	// Only the determinism rule runs, so the unchecked Close passes.
	if code := run([]string{"-C", dir, "-rules", "determinism"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0; out: %s", code, out.String())
	}
	if code := run([]string{"-C", dir, "-rules", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule: exit %d, want 2", code)
	}
}

func TestPackagePatternFilter(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"cmd/tool/main.go":  dirtyMain,
		"internal/ok/ok.go": "package ok\n",
	})
	var out, errOut bytes.Buffer
	// Restricting to internal/... skips the cmd finding.
	if code := run([]string{"-C", dir, filepath.Join(dir, "internal") + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("filtered run: exit %d, want 0; out: %s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-C", dir, filepath.Join(dir, "cmd") + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("cmd-only run: exit %d, want 1", code)
	}
}

func TestListRules(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range []string{"predict-purity", "determinism", "proto-bounds", "error-discipline", "proto-exhaustive"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": dirtyMain})
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir, "-json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output carries no findings")
	}
	f := findings[0]
	if f.File != "cmd/tool/main.go" || f.Line != 10 || f.Rule != "error-discipline" || f.Message == "" {
		t.Errorf("finding fields wrong: %+v", f)
	}

	// A clean tree must still emit a (now empty) array, so consumers
	// can parse unconditionally.
	dir = writeModule(t, map[string]string{"cmd/tool/main.go": "package main\n\nfunc main() {}\n"})
	out.Reset()
	if code := run([]string{"-C", dir, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("clean tree: exit %d", code)
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil || len(findings) != 0 {
		t.Errorf("clean tree JSON = %q (err %v), want []", out.String(), err)
	}
}

func TestDeadline(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": "package main\n\nfunc main() {}\n"})
	var out, errOut bytes.Buffer
	// No run over a real module completes within a nanosecond, so a
	// clean tree must exit 4 and say so.
	if code := run([]string{"-C", dir, "-deadline", "1ns"}, &out, &errOut); code != 4 {
		t.Fatalf("exit %d, want 4; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "deadline") {
		t.Errorf("stderr does not mention the deadline: %q", errOut.String())
	}
	// A generous deadline passes, and the timing line is always there.
	errOut.Reset()
	if code := run([]string{"-C", dir, "-deadline", "10m"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "package(s) in") {
		t.Errorf("stderr missing the wall-time line: %q", errOut.String())
	}
	// Findings outrank a blown deadline: the finding exit code wins.
	dir = writeModule(t, map[string]string{"cmd/tool/main.go": dirtyMain})
	if code := run([]string{"-C", dir, "-deadline", "1ns"}, &out, &errOut); code != 1 {
		t.Fatalf("findings + blown deadline: exit %d, want 1", code)
	}
}

func TestBrokenTreeExitsThree(t *testing.T) {
	dir := writeModule(t, map[string]string{"cmd/tool/main.go": "package main\n\nfunc main() { undefined() }\n"})
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", dir}, &out, &errOut); code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, errOut.String())
	}
}
