package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestSnapshotResumeMatchesUninterrupted is the state-level half of the
// checkpoint equivalence property (the file-format half lives in
// internal/snapshot): train a predictor for k events, export its state,
// import it into a fresh instance from the same factory, and drive both
// onward — every subsequent prediction must be identical, exactly as if
// the run had never been interrupted. The predictor inventory is the
// same one the reset-equals-fresh suite uses, so every Resetter is also
// exercised as a Snapshotter.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	events := trainEvents(3000)
	const cut = 1700 // mid-stream, after every table has been dirtied
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			s, ok := p.(Snapshotter)
			if !ok {
				t.Fatalf("%s does not implement Snapshotter", p.Name())
			}
			Run(p, trace.NewReader(events[:cut]))

			state := s.AppendState(nil)
			restored := mk()
			if err := restored.(Snapshotter).RestoreState(state); err != nil {
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
			p := mk().(Snapshotter)
			Run(p, trace.NewReader(events))
			state := p.AppendState(nil)

			restored := mk().(Snapshotter)
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
// may arrive from disk or the network.
func TestRestoreStateRejectsMalformed(t *testing.T) {
	events := trainEvents(1500)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk().(Snapshotter)
			Run(p, trace.NewReader(events))
			state := p.AppendState(nil)

			for _, tc := range []struct {
				label string
				data  []byte
			}{
				{"empty", nil},
				{"truncated", state[:len(state)/2]},
				{"padded", append(append([]byte{}, state...), 0xAA)},
			} {
				if err := mk().(Snapshotter).RestoreState(tc.data); err == nil {
					t.Errorf("%s state accepted", tc.label)
				} else if !errors.Is(err, ErrState) {
					t.Errorf("%s state error %v does not wrap ErrState", tc.label, err)
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
// not dereferenced at the next Predict.
func TestRestoreStateRejectsHostileIndices(t *testing.T) {
	fcm := NewFCM(4, 6)
	state := fcm.AppendState(nil)
	state[0] = 0xFF // first l1 history: huge big-endian value
	if err := NewFCM(4, 6).RestoreState(state); err == nil {
		t.Error("FCM accepted an out-of-range level-2 index")
	}

	dfcm := NewDFCM(4, 6)
	dstate := dfcm.AppendState(nil)
	dstate[4] = 0xFF // first l1 hist (after the 4-byte last value)
	if err := NewDFCM(4, 6).RestoreState(dstate); err == nil {
		t.Error("DFCM accepted an out-of-range level-2 index")
	}

	narrow := NewDFCMWidth(4, 8, 4)
	wstate := narrow.AppendState(nil)
	wstate[len(wstate)-1] = 0xFF // last l2 stride: wider than 4 bits
	if err := NewDFCMWidth(4, 8, 4).RestoreState(wstate); err == nil {
		t.Error("DFCM accepted a stride wider than its configured width")
	}
}

// TestStateTablesLiveCounts: live counts start at zero, grow under
// training, and survive a state round trip.
func TestStateTablesLiveCounts(t *testing.T) {
	events := trainEvents(1000)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			st, ok := p.(StateTabler)
			if !ok {
				t.Fatalf("%s does not implement StateTabler", p.Name())
			}
			for _, ti := range st.StateTables() {
				if ti.Live != 0 {
					t.Fatalf("fresh table %s reports %d live entries", ti.Name, ti.Live)
				}
			}
			Run(p, trace.NewReader(events))
			totalLive := 0
			for _, ti := range st.StateTables() {
				if ti.Live > ti.Entries {
					t.Fatalf("table %s: %d live of %d entries", ti.Name, ti.Live, ti.Entries)
				}
				totalLive += ti.Live
			}
			if totalLive == 0 {
				t.Fatal("training left no live entries")
			}

			restored := mk()
			if err := restored.(Snapshotter).RestoreState(p.(Snapshotter).AppendState(nil)); err != nil {
				t.Fatal(err)
			}
			got, want := restored.(StateTabler).StateTables(), st.StateTables()
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

// TestCombinedSnapshotSharedPredictorOnce: Combined's state embeds the
// shared predictor exactly once (via the tag block); restoring must
// rebuild all three views consistently.
func TestCombinedSnapshotSharedPredictorOnce(t *testing.T) {
	mk := func() (*Combined, *DFCM) {
		p := NewDFCM(6, 8)
		return NewCombined(p, NewHashTag(p, 6, 3), NewCounterConfidence(p, 6, 7, 4)), p
	}
	c, _ := mk()
	events := trainEvents(1200)
	RunConfident(c, trace.NewReader(events))

	restored, rp := mk()
	if err := restored.RestoreState(c.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	for _, e := range events[:200] {
		gv, gc := restored.PredictConfident(e.PC)
		wv, wc := c.PredictConfident(e.PC)
		if gv != wv || gc != wc {
			t.Fatalf("PredictConfident(%#x) = (%d,%v), want (%d,%v)", e.PC, gv, gc, wv, wc)
		}
		if rp.Predict(e.PC) != wv {
			t.Fatalf("shared predictor view diverged at %#x", e.PC)
		}
		c.Update(e.PC, e.Value)
		restored.Update(e.PC, e.Value)
	}
}
