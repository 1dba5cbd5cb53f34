package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/trace"
)

// TestSnapshotResumeMatchesUninterrupted is the state-level half of the
// checkpoint equivalence property (the file-format half lives in
// internal/snapshot): train a predictor for k events, export its state,
// import it into a fresh instance from the same factory, and drive both
// onward — every subsequent prediction must be identical, exactly as if
// the run had never been interrupted. The predictor inventory is the
// same one the reset-equals-fresh suite uses.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	events := trainEvents(3000)
	const cut = 1700 // mid-stream, after every table has been dirtied
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			Run(p, events[:cut])

			state := p.AppendState(nil)
			restored := mk()
			if err := restored.RestoreState(state); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			for i, e := range events[cut:] {
				got, want := restored.Predict(e.PC), p.Predict(e.PC)
				if got != want {
					t.Fatalf("event %d: restored Predict(%#x) = %d, uninterrupted = %d",
						cut+i, e.PC, got, want)
				}
				p.Update(e.PC, e.Value)
				restored.Update(e.PC, e.Value)
			}
		})
	}
}

// TestSnapshotStateRoundTripStable: exporting restored state must
// reproduce the original bytes — AppendState∘RestoreState is the
// identity on valid states, so repeated checkpoint/restore cycles
// cannot drift.
func TestSnapshotStateRoundTripStable(t *testing.T) {
	events := trainEvents(2000)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			Run(p, events)
			state := p.AppendState(nil)

			restored := mk()
			if err := restored.RestoreState(state); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			again := restored.AppendState(nil)
			if len(again) != len(state) {
				t.Fatalf("re-exported state is %d bytes, want %d", len(again), len(state))
			}
			for i := range state {
				if state[i] != again[i] {
					t.Fatalf("re-exported state diverges at byte %d", i)
				}
			}
		})
	}
}

// TestRestoreStateRejectsMalformed: truncated, padded and corrupted
// state blobs must error (wrapping ErrState), never panic — the bytes
// may arrive from disk or the network. Every proper prefix of a valid
// state is a truncation, so each one is tried: a cut inside any table,
// header word or nested block.
func TestRestoreStateRejectsMalformed(t *testing.T) {
	events := trainEvents(1500)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			Run(p, events)
			state := p.AppendState(nil)

			type malformed struct {
				desc string
				data []byte
			}
			cases := []malformed{{"padded", append(append([]byte{}, state...), 0xAA)}}
			for n := range len(state) {
				cases = append(cases, malformed{fmt.Sprintf("%d-byte prefix", n), state[:n]})
			}
			q := mk()
			for _, tc := range cases {
				if err := q.RestoreState(tc.data); err == nil {
					t.Fatalf("%s of %d-byte state accepted", tc.desc, len(state))
				} else if !errors.Is(err, ErrState) {
					t.Fatalf("%s state error %v does not wrap ErrState", tc.desc, err)
				}
			}
		})
	}

	// A Delayed queue longer than delay+1 entries is malformed: three
	// updates queued under delay 4 do not fit a delay-1 ring.
	long := NewDelayed(NewLastValue(4), 4)
	for i := uint32(0); i < 3; i++ {
		long.Update(0x40, i)
	}
	// A huge delay must not let a claimed queue length allocate
	// before the bytes for it arrived.
	huge := binary.BigEndian.AppendUint32(nil, 1<<32-1)
	huge = append(huge, NewLastValue(4).AppendState(nil)...)
	for _, tc := range []struct {
		label string
		delay int
		data  []byte
	}{
		{"queue longer than delay+1", 1, long.AppendState(nil)},
		{"huge queue claim", 1<<32 - 1, huge},
	} {
		err := NewDelayed(NewLastValue(4), tc.delay).RestoreState(tc.data)
		if !errors.Is(err, ErrState) {
			t.Errorf("delayed %s: got %v, want ErrState", tc.label, err)
		}
	}
}

// TestRestoreStateRejectsHostileIndices: a state blob carrying a
// level-2 index past the table end must be rejected at restore time,
// not dereferenced at the next Predict, and every counter must stay
// within its saturation bound. Each case sets one byte of a fresh
// predictor's state; the in-bounds cases pin the exact bound.
func TestRestoreStateRejectsHostileIndices(t *testing.T) {
	cases := []struct {
		desc string
		mk   func() Snapshotter
		at   int // byte index into the state
		b    byte
		ok   bool
	}{
		// at 0: the top byte of the first big-endian l1 history.
		{"fcm out-of-range level-2 index", func() Snapshotter { return NewFCM(4, 6) }, 0, 0xFF, false},
		// at 4: the first l1 hist, after its row's 4-byte last value.
		{"dfcm out-of-range level-2 index", func() Snapshotter { return NewDFCM(4, 6) }, 4, 0xFF, false},
		// at -1: the last l2 stride's low byte.
		{"dfcm stride wider than 4 bits", func() Snapshotter { return NewDFCMWidth(4, 8, 4) }, -1, 0xFF, false},
		{"dfcm stride of 4 bits", func() Snapshotter { return NewDFCMWidth(4, 8, 4) }, -1, 0x0F, true},
		// at 8: the first row's conf, after last and stride.
		{"stride conf 8", func() Snapshotter { return NewStride(4) }, 8, 8, false},
		{"stride conf 7", func() Snapshotter { return NewStride(4) }, 8, 7, true},
		// at 0: the first 2-bit selection counter.
		{"meta counter 4", func() Snapshotter { return NewMetaHybrid(NewStride(4), NewFCM(4, 6), 4) }, 0, 4, false},
		{"meta counter 3", func() Snapshotter { return NewMetaHybrid(NewStride(4), NewFCM(4, 6), 4) }, 0, 3, true},
	}
	for _, tc := range cases {
		state := tc.mk().AppendState(nil)
		if tc.at < 0 {
			tc.at += len(state)
		}
		state[tc.at] = tc.b
		err := tc.mk().RestoreState(state)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.desc, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.desc)
		case !tc.ok && !errors.Is(err, ErrState):
			t.Errorf("%s: error %v does not wrap ErrState", tc.desc, err)
		}
	}
}

// stateShapes are small-geometry specs of every kind, with width,
// delay and tage variants, paired with the sha256 of their state after
// stateTrace. The digests were recorded before Stride and TwoDelta
// moved to structure-of-arrays tables and the layouts became walks:
// they pin the serialized layout of every kind, so a checkpoint taken
// by an older build still restores.
var stateShapes = []struct {
	spec   Spec
	digest string
}{
	{Spec{Kind: "lvp", L1: 6}, "0991dddff0718509ea57c2cadb8d7f8a67badc720ada7c55b61d063f575877f8"},
	{Spec{Kind: "stride", L1: 6}, "96751a08aec053c6386bb47db2af997ebd1ec213416a4ee28daadf96ae529a21"},
	{Spec{Kind: "2delta", L1: 6}, "9475e3fc8cac5a612e61afc91d6568e3dc5cfa9008e6f13f7186e57f49cdf4c5"},
	{Spec{Kind: "fcm", L1: 6, L2: 8}, "caf699d61b5a22d349a7b84c23ad652489d34ea127c557f36c384c6a1827460a"},
	{Spec{Kind: "dfcm", L1: 6, L2: 8}, "d178ce051bab1be9f51c43a3e65fd0180389fc34038f23919e4389df2eb4edf4"},
	{Spec{Kind: "dfcm", L1: 6, L2: 8, Width: 8}, "a318591146c42199f741b3922739fe6adea5b660ed93257658b2589084e3ee8f"},
	{Spec{Kind: "hybrid", L1: 6, L2: 8}, "5d3f683156e81f2ed3d602fc7d8eda0da0b87176585423b6d2958abf34b03d96"},
	{Spec{Kind: "tage", L1: 6, L2: 5}, "ef9cb1eab2e4fe24126086fad0ceac0493a3a1f945a988053ce904451726859e"},
	{Spec{Kind: "tage", L1: 5, L2: 4, Width: 8, Tables: 3, Tag: 10, HistMin: 2, HistMax: 32}, "d1700ce84231dbb686f575e8a17919f7ffac3aff98bdaa1c480f0eb5320b2d16"},
	{Spec{Kind: "stride", L1: 6, Delay: 4}, "7bfff65f19be03ced2b20132bf77f1088b680ad61e345d812f9efbca3d98f4cc"},
	{Spec{Kind: "dfcm", L1: 6, L2: 8, Delay: 6}, "b5c5d16abc016b18d7c7ddcc06587f1c0d44522884134e07422952c64dc5d290"},
	{Spec{Kind: "hybrid", L1: 6, L2: 8, Delay: 3}, "0c1a26b24a1b8fafddcea9720c8d2bd2e9a38174d988a3f5ed8eeedf7761df44"},
	{Spec{Kind: "tage", L1: 5, L2: 4, Delay: 3}, "dad261a57796bc0a82cfa5d3c63d900256a1f4f07857d83ced8242d08d1097f2"},
}

// stateTrace is the training run behind the stateShapes digests.
func stateTrace() trace.Trace { return trainEvents(5000) }

// TestStateLayoutDigests pins the state bytes of every stateShapes
// spec after stateTrace.
func TestStateLayoutDigests(t *testing.T) {
	events := stateTrace()
	for _, sh := range stateShapes {
		p, err := sh.spec.New()
		if err != nil {
			t.Fatal(err)
		}
		Run(p, events)
		sum := sha256.Sum256(p.(Snapshotter).AppendState(nil))
		if got := hex.EncodeToString(sum[:]); got != sh.digest {
			t.Errorf("%s: state sha256 %s, want %s", p.Name(), got, sh.digest)
		}
	}
}

// TestAppendStateAllocatesOnce: AppendState(nil) sizes its output
// before it writes, so every shape costs exactly one allocation, the
// state buffer itself, however many tables and nested blocks it has.
func TestAppendStateAllocatesOnce(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; the budget holds in pure builds only")
	}
	events := stateTrace()
	for _, sh := range stateShapes {
		p, err := sh.spec.New()
		if err != nil {
			t.Fatal(err)
		}
		Run(p, events)
		s := p.(Snapshotter)
		if n := testing.AllocsPerRun(10, func() { s.AppendState(nil) }); n != 1 {
			t.Errorf("%s: AppendState(nil) made %v allocations, want 1", p.Name(), n)
		}
	}
}

// FuzzRestoreState feeds RestoreState arbitrary state. The first byte
// picks a stateShapes spec; the rest is the state. Restore must never
// panic and must reject only with ErrState; an accepted state must
// re-export byte-identical (AppendState∘RestoreState is the identity)
// and leave a predictor that runs without a panic, so no restored
// index can point outside its table.
func FuzzRestoreState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p, err := stateShapes[int(data[0])%len(stateShapes)].spec.New()
		if err != nil {
			t.Fatal(err)
		}
		state := data[1:]
		if err := p.(Snapshotter).RestoreState(state); err != nil {
			if !errors.Is(err, ErrState) {
				t.Fatalf("%s: error %v does not wrap ErrState", p.Name(), err)
			}
			return
		}
		if again := p.(Snapshotter).AppendState(nil); !bytes.Equal(again, state) {
			t.Fatalf("%s: accepted %d-byte state re-exports as %d different bytes", p.Name(), len(state), len(again))
		}
		Run(p, trainEvents(64))
	})
}

// TestStateTablesLiveCounts: live counts start at zero, grow under
// training, and survive a state round trip.
func TestStateTablesLiveCounts(t *testing.T) {
	events := trainEvents(1000)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			for _, ti := range p.StateTables() {
				if ti.Live != 0 {
					t.Fatalf("fresh table %s reports %d live entries", ti.Name, ti.Live)
				}
			}
			Run(p, events)
			totalLive := 0
			for _, ti := range p.StateTables() {
				if ti.Live > ti.Entries {
					t.Fatalf("table %s: %d live of %d entries", ti.Name, ti.Live, ti.Entries)
				}
				totalLive += ti.Live
			}
			if totalLive == 0 {
				t.Fatal("training left no live entries")
			}

			restored := mk()
			if err := restored.RestoreState(p.AppendState(nil)); err != nil {
				t.Fatal(err)
			}
			got, want := restored.StateTables(), p.StateTables()
			if len(got) != len(want) {
				t.Fatalf("restored reports %d tables, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("table %d: restored %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
