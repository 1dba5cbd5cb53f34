package engine

import (
	"testing"

	"repro/internal/core"
)

// TestStreamFeed: feeding a trace through a Stream in slices of any
// size — including degenerate and non-dividing ones — accumulates
// exactly the per-event core.Run result for every predictor, and the
// trained predictor taken out of the stream is bit-identical (state
// bytes) to one trained by a sequential replay of the same events.
func TestStreamFeed(t *testing.T) {
	tr := synthTrace(10_000)
	for _, feed := range []int{1, 13, 997, 4096, len(tr), len(tr) + 5} {
		mks := configs()
		preds := make([]core.Predictor, len(mks))
		for i, mk := range mks {
			preds[i] = mk()
		}
		st := NewStream(preds, 0)
		for start := 0; start < len(tr); start += feed {
			end := start + feed
			if end > len(tr) {
				end = len(tr)
			}
			st.Feed(tr[start:end])
		}
		results := st.Finalize()
		for i, mk := range mks {
			ref := mk()
			want := core.Run(ref, tr)
			if results[i] != want {
				t.Errorf("feed %d predictor %d: got %+v want %+v", feed, i, results[i], want)
			}
			if st.Predictor(i) != preds[i] {
				t.Fatalf("feed %d predictor %d: stream hands out a different predictor", feed, i)
			}
			if string(stateOf(preds[i])) != string(stateOf(ref)) {
				t.Errorf("feed %d predictor %d: streamed state differs from sequential state", feed, i)
			}
		}
	}
}

// stateOf returns a predictor's state bytes.
func stateOf(p core.Predictor) []byte {
	return p.(core.Snapshotter).AppendState(nil)
}

// TestStreamResultsSnapshot: Results exposes the running totals
// between Feed calls, and the totals only ever grow by the fed batch.
func TestStreamResultsSnapshot(t *testing.T) {
	tr := synthTrace(1000)
	st := NewStream([]core.Predictor{core.NewDFCM(6, 8)}, 0)
	var fed uint64
	for start := 0; start < len(tr); start += 100 {
		st.Feed(tr[start : start+100])
		fed += 100
		r := st.Results()[0]
		if r.Predictions != fed {
			t.Fatalf("after %d events: Predictions = %d", fed, r.Predictions)
		}
		if r.Correct > r.Predictions {
			t.Fatalf("correct %d exceeds predictions %d", r.Correct, r.Predictions)
		}
	}
}

// TestStreamFeedAfterFinalizePanics: Finalize hands the results out;
// the stream must refuse further input loudly.
func TestStreamFeedAfterFinalizePanics(t *testing.T) {
	st := NewStream([]core.Predictor{core.NewLastValue(4)}, 0)
	st.Feed(synthTrace(10))
	st.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("Feed after Finalize did not panic")
		}
	}()
	st.Feed(synthTrace(10))
}
