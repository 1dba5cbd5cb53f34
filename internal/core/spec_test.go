package core

import (
	"flag"
	"strings"
	"testing"
)

func TestSpecNewNames(t *testing.T) {
	cases := []struct {
		spec Spec
		name string
	}{
		{Spec{Kind: "lvp", L1: 10}, "lvp-2^10"},
		{Spec{Kind: "stride", L1: 12}, "stride-2^12"},
		{Spec{Kind: "2delta", L1: 12}, "2delta-2^12"},
		{Spec{Kind: "fcm", L1: 10, L2: 8}, "fcm-2^10/2^8"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8}, "dfcm-2^10/2^8"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8, Width: 8}, "dfcm-2^10/2^8/w8"},
		{Spec{Kind: "hybrid", L1: 10, L2: 8}, "meta2^10(stride-2^10|fcm-2^10/2^8)"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8, Delay: 64}, "dfcm-2^10/2^8@delay64"},
		{Spec{Kind: "tage", L1: 10, L2: 8}, "tage-2^10+4x2^8/t8/h4..64"},
		{Spec{Kind: "tage", L1: 10, L2: 8, Width: 8, Tables: 6, Tag: 10, HistMin: 2, HistMax: 128},
			"tage-2^10+6x2^8/t10/h2..128/w8"},
	}
	for _, c := range cases {
		p, err := c.spec.New()
		if err != nil {
			t.Errorf("%+v: %v", c.spec, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("%+v built %q, want %q", c.spec, p.Name(), c.name)
		}
	}
}

func TestSpecNewErrors(t *testing.T) {
	bad := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "oracle", L1: 10}, "unknown predictor"},
		{Spec{Kind: "dfcm", L1: 40, L2: 8}, "level-1"},
		{Spec{Kind: "dfcm", L1: 10, L2: 40}, "level-2"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8, Width: 40}, "stride width"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8, Delay: -1}, "delay"},
	}
	for _, c := range bad {
		if _, err := c.spec.New(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestSpecBuiltAreResettable: every predictor a Spec can build,
// delayed or not, carries the serving machinery — recycled in place
// (Resetter), checkpointed and migrated (Snapshotter), inspected
// (StateTabler).
func TestSpecBuiltAreResettable(t *testing.T) {
	for _, kind := range []string{"lvp", "stride", "2delta", "fcm", "dfcm", "hybrid", "tage"} {
		for _, delay := range []int{0, 4} {
			p, err := Spec{Kind: kind, L1: 8, L2: 8, Delay: delay}.New()
			if err != nil {
				t.Fatalf("%s delay %d: %v", kind, delay, err)
			}
			if _, ok := p.(Resetter); !ok {
				t.Errorf("%s-built predictor %s is not a Resetter", kind, p.Name())
			}
			if _, ok := p.(Snapshotter); !ok {
				t.Errorf("%s-built predictor %s is not a Snapshotter", kind, p.Name())
			}
			if _, ok := p.(StateTabler); !ok {
				t.Errorf("%s-built predictor %s is not a StateTabler", kind, p.Name())
			}
		}
	}
}

// TestSpecNewBoundaries pins the exact edges of each validated
// parameter: the largest accepted value and the smallest rejected one.
func TestSpecNewBoundaries(t *testing.T) {
	// Accepted edges stay at small table sizes: the in-range maxima
	// (L1/L2 = 30) are legal but allocate gigabyte tables, so the
	// range ends are exercised on the rejection side only.
	accept := []Spec{
		{Kind: "lvp", L1: 0},                                               // zero-entry table degenerates to 1 entry
		{Kind: "fcm", L1: 0, L2: 1},                                        // both levels minimal
		{Kind: "dfcm", L1: 10, L2: 8, Width: 1},                            // narrowest stride
		{Kind: "dfcm", L1: 10, L2: 8, Width: 32},                           // widest stride
		{Kind: "2delta", L1: 10, Delay: 1 << 20},                           // huge but legal delay
		{Kind: "hybrid", L1: 0, L2: 1},                                     // minimal hybrid
		{Kind: "tage", L1: 8, L2: 1},                                       // minimal tagged tables, default geometry
		{Kind: "tage", L1: 8, L2: 6, Tables: 1, HistMin: 64, HistMax: 64},  // N=1 degenerate series
		{Kind: "tage", L1: 8, L2: 6, Tables: 6, HistMin: 16, HistMax: 16},  // equal-length series
		{Kind: "tage", L1: 8, L2: 6, Tables: 12, HistMin: 1, HistMax: 128}, // max tables + max history
		{Kind: "tage", L1: 8, L2: 6, Tag: 4},                               // narrowest tag
		{Kind: "tage", L1: 8, L2: 6, Tag: 16, Width: 1},                    // widest tag, narrowest stride
	}
	for _, s := range accept {
		if _, err := s.New(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	reject := []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "lvp", L1: 31}, "level-1"},
		{Spec{Kind: "fcm", L1: 10, L2: 31}, "level-2"},
		{Spec{Kind: "fcm", L1: 10, L2: 0}, "level-2"},  // zero-size level-2 table
		{Spec{Kind: "dfcm", L1: 10, L2: 0}, "level-2"}, // zero-size level-2 table
		{Spec{Kind: "hybrid", L1: 10, L2: 0}, "level-2"},
		{Spec{Kind: "dfcm", L1: 10, L2: 8, Width: 33}, "stride width"},
		{Spec{Kind: "stride", L1: 10, Delay: -1}, "delay"},
		{Spec{Kind: "tage", L1: 10, L2: 0}, "tagged-table"},
		{Spec{Kind: "tage", L1: 10, L2: 6, Tables: 13}, "table count"},
		{Spec{Kind: "tage", L1: 10, L2: 6, Tag: 3}, "tag width"},
		{Spec{Kind: "tage", L1: 10, L2: 6, Tag: 17}, "tag width"},
		{Spec{Kind: "tage", L1: 10, L2: 6, HistMax: 129}, "history series"},
		{Spec{Kind: "tage", L1: 10, L2: 6, HistMin: 65}, "history series"}, // min above default max
		{Spec{Kind: "tage", L1: 10, L2: 6, Width: 33}, "stride width"},
		{Spec{}, "unknown predictor"},                            // zero value
		{Spec{Kind: "DFCM", L1: 10, L2: 8}, "unknown predictor"}, // kinds are case-sensitive
		{Spec{Kind: "lvp", L1: ^uint(0)}, "level-1"},             // wraparound-sized table
	}
	for _, c := range reject {
		p, err := c.spec.New()
		if err == nil {
			t.Errorf("%+v accepted as %s", c.spec, p.Name())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestSpecNewNeverPanics: Spec.New validates instead of panicking —
// specs arrive from flags and network peers, so a malformed one must
// come back as an error even though the underlying constructors panic
// on the same inputs.
func TestSpecNewNeverPanics(t *testing.T) {
	// Valid size values stay small (10/8) so accepted specs allocate
	// kilobytes; the interesting cases are the out-of-range ones,
	// which must error before any allocation happens.
	kinds := []string{"", "lvp", "stride", "2delta", "fcm", "dfcm", "hybrid", "tage", "nonsense"}
	l1s := []uint{0, 10, 31, 64, ^uint(0)}
	l2s := []uint{0, 8, 31, ^uint(0)}
	widths := []uint{0, 1, 32, 33, ^uint(0)}
	delays := []int{-1 << 40, -1, 0, 1, 1 << 20}
	for _, kind := range kinds {
		for _, l1 := range l1s {
			for _, l2 := range l2s {
				for _, w := range widths {
					for _, d := range delays {
						s := Spec{Kind: kind, L1: l1, L2: l2, Width: w, Delay: d}
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%+v panicked: %v", s, r)
								}
							}()
							p, err := s.New()
							if (p == nil) == (err == nil) {
								t.Fatalf("%+v: predictor %v, err %v — exactly one must be set", s, p, err)
							}
						}()
					}
				}
			}
		}
	}
}

// TestSpecNewNeverPanicsTAGEGeometry sweeps the tage-only fields over
// their edges and past them, including every degenerate history series
// (single table, equal lengths, maximal lengths, inverted ranges):
// Spec.New must return exactly one of (predictor, error) and never
// panic, whatever the geometry.
func TestSpecNewNeverPanicsTAGEGeometry(t *testing.T) {
	tables := []uint{0, 1, 2, 12, 13, 255, ^uint(0)}
	tagsW := []uint{0, 3, 4, 16, 17, ^uint(0)}
	hmins := []uint{0, 1, 16, 64, 128, 129, ^uint(0)}
	hmaxs := []uint{0, 1, 16, 64, 128, 129, ^uint(0)}
	for _, n := range tables {
		for _, tg := range tagsW {
			for _, lo := range hmins {
				for _, hi := range hmaxs {
					s := Spec{Kind: "tage", L1: 6, L2: 4, Tables: n, Tag: tg, HistMin: lo, HistMax: hi}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%+v panicked: %v", s, r)
							}
						}()
						p, err := s.New()
						if (p == nil) == (err == nil) {
							t.Fatalf("%+v: predictor %v, err %v — exactly one must be set", s, p, err)
						}
					}()
				}
			}
		}
	}
}

// TestSpecCanonicalTAGE pins the tage defaults and that every other
// kind zeroes the tage-only fields, so canonical-spec comparison
// (checkpoint warm-start, vpstate diff) ignores stray geometry on
// non-tage specs.
func TestSpecCanonicalTAGE(t *testing.T) {
	got := Spec{Kind: "tage", L1: 10, L2: 8}.Canonical()
	want := Spec{Kind: "tage", L1: 10, L2: 8, Width: 32, Tables: 4, Tag: 8, HistMin: 4, HistMax: 64}
	if got != want {
		t.Errorf("tage canonical = %+v, want %+v", got, want)
	}
	off := Spec{Kind: "dfcm", L1: 10, L2: 8, Tables: 6, Tag: 12, HistMin: 2, HistMax: 99}.Canonical()
	if off.Tables != 0 || off.Tag != 0 || off.HistMin != 0 || off.HistMax != 0 {
		t.Errorf("dfcm canonical kept tage fields: %+v", off)
	}
}

// TestSpecWidthIgnoredOffDFCM: Width only applies to dfcm; other
// kinds must accept any width value silently rather than building a
// different predictor.
func TestSpecWidthIgnoredOffDFCM(t *testing.T) {
	for _, kind := range []string{"lvp", "stride", "2delta", "fcm", "hybrid"} {
		base, err := Spec{Kind: kind, L1: 8, L2: 6}.New()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wide, err := Spec{Kind: kind, L1: 8, L2: 6, Width: 16}.New()
		if err != nil {
			t.Fatalf("%s with width: %v", kind, err)
		}
		if base.Name() != wide.Name() || base.SizeBits() != wide.SizeBits() {
			t.Errorf("%s: width changed predictor: %s/%d vs %s/%d",
				kind, base.Name(), base.SizeBits(), wide.Name(), wide.SizeBits())
		}
	}
}

// TestSpecRegisterFlags pins the predictor flag vocabulary that
// cmd/vpredict and cmd/vpserve share: the nine names, their defaults,
// and that parsing fills every Spec field.
func TestSpecRegisterFlags(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	s.RegisterFlags(fs)
	defaults := map[string]string{
		"predictor": "dfcm", "l1": "16", "l2": "12", "width": "32", "delay": "0",
		"tables": "0", "tag": "0", "hmin": "0", "hmax": "0",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if want, ok := defaults[f.Name]; !ok || f.DefValue != want {
			t.Errorf("-%s default %q, want %q (known: %v)", f.Name, f.DefValue, want, ok)
		}
	})
	if n != len(defaults) {
		t.Errorf("%d flags registered, want %d", n, len(defaults))
	}
	args := []string{"-predictor", "tage", "-l1", "13", "-l2", "10", "-width", "8", "-delay", "3",
		"-tables", "5", "-tag", "9", "-hmin", "2", "-hmax", "40"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Spec{Kind: "tage", L1: 13, L2: 10, Width: 8, Delay: 3, Tables: 5, Tag: 9, HistMin: 2, HistMax: 40}
	if s != want {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
}
