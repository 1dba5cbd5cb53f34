package core

import (
	"testing"

	"repro/internal/trace"
)

// Per-operation predictor microbenchmarks. The root bench_test.go
// benchmarks whole paper experiments; these isolate one Predict+Update
// round trip — the hot path of the internal/serve engine — so serving
// throughput regressions can be traced to a specific predictor.
//
// Run with: go test -bench=PredictUpdate ./internal/core

// benchTrace is a deterministic mixed loop body (constants, strides,
// repeating contexts, xorshift noise) over 16 PCs, the same shape the
// root benchmarks use via internal/workload.
func benchTrace(n int) trace.Trace {
	t := make(trace.Trace, 0, n)
	pattern := []uint32{9, 2, 25, 7, 1, 130, 4, 66}
	rnd := uint32(88172645)
	for i := 0; len(t) < n; i++ {
		pc := uint32(0x1000)
		for c := 0; c < 4; c++ {
			t = append(t, trace.Event{PC: pc, Value: uint32(7 + c*13)})
			pc += 4
		}
		for s := 0; s < 6; s++ {
			t = append(t, trace.Event{PC: pc, Value: uint32(s*100000) + uint32(i)*uint32(2*s+1)})
			pc += 4
		}
		for y := 0; y < 4; y++ {
			t = append(t, trace.Event{PC: pc, Value: pattern[(i+y)%len(pattern)]})
			pc += 4
		}
		for r := 0; r < 2; r++ {
			rnd ^= rnd << 13
			rnd ^= rnd >> 17
			rnd ^= rnd << 5
			t = append(t, trace.Event{PC: pc, Value: rnd & 0xffff})
			pc += 4
		}
	}
	return t[:n]
}

func benchPredictUpdate(b *testing.B, p Predictor) {
	b.Helper()
	events := benchTrace(4096)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		if p.Predict(e.PC) == e.Value {
			hits++
		}
		p.Update(e.PC, e.Value)
	}
	_ = hits
}

func BenchmarkLastValue_PredictUpdate(b *testing.B) { benchPredictUpdate(b, NewLastValue(14)) }
func BenchmarkStride_PredictUpdate(b *testing.B)    { benchPredictUpdate(b, NewStride(14)) }
func BenchmarkTwoDelta_PredictUpdate(b *testing.B)  { benchPredictUpdate(b, NewTwoDelta(14)) }
func BenchmarkFCM_PredictUpdate(b *testing.B)       { benchPredictUpdate(b, NewFCM(14, 12)) }
func BenchmarkDFCM_PredictUpdate(b *testing.B)      { benchPredictUpdate(b, NewDFCM(14, 12)) }
func BenchmarkHybrid_PredictUpdate(b *testing.B) {
	benchPredictUpdate(b, NewMetaHybrid(NewStride(14), NewDFCM(14, 12), 14))
}

func BenchmarkReset(b *testing.B) {
	p := NewDFCM(14, 12)
	Run(p, trace.NewReader(benchTrace(4096)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
	}
}
