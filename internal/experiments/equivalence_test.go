package experiments

// TestRegistryDigest pins the rendered output of every experiment at
// a small configuration to the sha256 digests in
// testdata/registry.sha256. The digests were recorded from a
// sequential per-event core.Run replay, which the pooled
// predictor-major engine matches byte for byte, perfect hybrids
// included as unions of hit masks. All experiment accumulation is
// integer arithmetic into index-addressed slots read back in
// submission order, so scheduling cannot perturb output. When a change
// alters an artifact on purpose, the failure prints the replacement
// file.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestRegistryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry digest run")
	}
	raw, err := os.ReadFile("testdata/registry.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, id, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[id] = sum
	}

	cfg := Config{Budget: 50_000, Benchmarks: []string{"li", "m88ksim", "go"}}
	ResetCache()
	var lines strings.Builder
	bad := false
	for _, e := range All() {
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(res.String())))
		fmt.Fprintf(&lines, "%s  %s\n", sum, e.ID)
		if want[e.ID] != sum {
			t.Errorf("%s: output digest %s, recorded %q", e.ID, sum, want[e.ID])
			bad = true
		}
	}
	if len(want) != len(All()) {
		t.Errorf("testdata/registry.sha256 lists %d experiments, the registry has %d", len(want), len(All()))
		bad = true
	}
	if bad {
		t.Errorf("replacement testdata/registry.sha256:\n%s", lines.String())
	}
}
