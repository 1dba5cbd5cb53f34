package core

import (
	"flag"
	"fmt"
)

// Spec describes a predictor configuration in the flag vocabulary
// shared by cmd/vpredict and cmd/vpserve (-predictor/-l1/-l2/-width/
// -delay). Keeping the mapping here guarantees that an online serving
// session and an offline replay built from the same flags run the
// exact same predictor — the property the end-to-end equivalence test
// relies on.
type Spec struct {
	Kind  string // lvp | stride | 2delta | fcm | dfcm | hybrid | tage
	L1    uint   // log2 of the level-1 (or only) table entries
	L2    uint   // log2 of the level-2 table entries (fcm/dfcm/hybrid); log2 entries per tagged table (tage)
	Width uint   // stored stride width in bits (dfcm/tage); 0 means 32
	Delay int    // update delay in predictions; 0 disables

	// TAGE-only geometry (-tables/-tag/-hmin/-hmax). Zero means the
	// kind's default; Canonical zeroes them for every other kind.
	Tables  uint // tagged-table count; 0 means 4
	Tag     uint // partial-tag width in bits; 0 means 8
	HistMin uint // shortest history length in events; 0 means 4
	HistMax uint // longest history length in events; 0 means 64
}

// RegisterFlags binds the spec's flag vocabulary — -predictor, -l1,
// -l2, -width, -delay, -tables, -tag, -hmin, -hmax — to s, so every
// command that builds a predictor from flags declares the same flags
// with the same defaults.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Kind, "predictor", "dfcm", "lvp | stride | 2delta | fcm | dfcm | hybrid | tage")
	fs.UintVar(&s.L1, "l1", 16, "log2 of the level-1 (or only) table entries")
	fs.UintVar(&s.L2, "l2", 12, "log2 of the level-2 table entries (fcm/dfcm/hybrid); log2 entries per tagged table (tage)")
	fs.UintVar(&s.Width, "width", 32, "stored stride width in bits (dfcm/tage)")
	fs.IntVar(&s.Delay, "delay", 0, "update delay in predictions")
	fs.UintVar(&s.Tables, "tables", 0, "tagged-table count (tage); 0 = default 4")
	fs.UintVar(&s.Tag, "tag", 0, "partial-tag width in bits (tage); 0 = default 8")
	fs.UintVar(&s.HistMin, "hmin", 0, "shortest history length in events (tage); 0 = default 4")
	fs.UintVar(&s.HistMax, "hmax", 0, "longest history length in events (tage); 0 = default 64")
}

// Canonical returns the spec with fields the kind ignores zeroed and
// defaults made explicit, so two specs compare equal exactly when New
// builds behaviourally identical predictors. Checkpoint warm-start
// (internal/serve) and cmd/vpstate diff compare canonical specs.
func (s Spec) Canonical() Spec {
	switch s.Kind {
	case "lvp", "stride", "2delta":
		s.L2, s.Width = 0, 0
	case "fcm", "hybrid":
		s.Width = 0
	case "dfcm":
		if s.Width == 0 {
			s.Width = 32
		}
	case "tage":
		if s.Width == 0 {
			s.Width = 32
		}
		if s.Tables == 0 {
			s.Tables = 4
		}
		if s.Tag == 0 {
			s.Tag = 8
		}
		if s.HistMin == 0 {
			s.HistMin = 4
		}
		if s.HistMax == 0 {
			s.HistMax = 64
		}
	}
	if s.Kind != "tage" {
		s.Tables, s.Tag, s.HistMin, s.HistMax = 0, 0, 0, 0
	}
	return s
}

// New builds a fresh predictor from the spec. Unlike the constructors,
// which panic on out-of-range parameters (programming errors), New
// validates and returns an error, since specs typically arrive from
// flags or a network peer.
func (s Spec) New() (Predictor, error) {
	if s.L1 > 30 {
		return nil, fmt.Errorf("level-1 width %d out of range [0,30]", s.L1)
	}
	if s.L2 > 30 {
		return nil, fmt.Errorf("level-2 width %d out of range [0,30]", s.L2)
	}
	// The context kinds hash histories into the level-2 index, and a
	// zero-width hash is meaningless — the constructors panic on it,
	// so reject it here where inputs come from flags or the network.
	if s.L2 == 0 && (s.Kind == "fcm" || s.Kind == "dfcm" || s.Kind == "hybrid") {
		return nil, fmt.Errorf("%s needs a level-2 width in [1,30]", s.Kind)
	}
	// tage indexes its tagged tables with L2 bits the same way; zero
	// tagged entries is meaningless.
	if s.L2 == 0 && s.Kind == "tage" {
		return nil, fmt.Errorf("tage needs a tagged-table width in [1,30]")
	}
	width := s.Width
	if width == 0 {
		width = 32
	}
	if width > 32 {
		return nil, fmt.Errorf("stride width %d out of range [1,32]", s.Width)
	}
	if s.Delay < 0 {
		return nil, fmt.Errorf("negative update delay %d", s.Delay)
	}
	var p Predictor
	switch s.Kind {
	case "lvp":
		p = NewLastValue(s.L1)
	case "stride":
		p = NewStride(s.L1)
	case "2delta":
		p = NewTwoDelta(s.L1)
	case "fcm":
		p = NewFCM(s.L1, s.L2)
	case "dfcm":
		p = NewDFCMWidth(s.L1, s.L2, width)
	case "hybrid":
		// The realizable §4.3 chooser, not the Figure 16 oracle
		// (a union of hit masks, UnionHits), which no client can reach.
		p = NewMetaHybrid(NewStride(s.L1), NewFCM(s.L1, s.L2), s.L1)
	case "tage":
		c := s.Canonical()
		if c.Tables > TAGEMaxTables {
			return nil, fmt.Errorf("tage table count %d out of range [1,%d]", c.Tables, TAGEMaxTables)
		}
		if c.Tag < 4 || c.Tag > 16 {
			return nil, fmt.Errorf("tage tag width %d out of range [4,16]", c.Tag)
		}
		if c.HistMax > TAGEMaxHist || c.HistMin > c.HistMax {
			return nil, fmt.Errorf("tage history series %d..%d out of range [1,%d]", c.HistMin, c.HistMax, TAGEMaxHist)
		}
		p = NewTAGE(c.L1, c.L2, width, int(c.Tables), c.Tag, c.HistMin, c.HistMax)
	default:
		return nil, fmt.Errorf("unknown predictor %q", s.Kind)
	}
	if s.Delay > 0 {
		p = NewDelayed(p, s.Delay)
	}
	return p, nil
}
