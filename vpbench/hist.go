package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-bucketed latency histogram: exact below 32ns, then 32
// buckets per power of two (at most about 3% wide), each with the sum
// of its samples. A phase's latencies cost a fixed few kilobytes
// however many ops it runs, so recording them does not grow the heap
// the rss_peak_mb metric measures.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
	sums   [histBuckets]uint64 // nanoseconds
}

const (
	histSub     = 32
	histOctaves = 38 // covers latencies up to 2^43 ns (about 2.4 hours)
	histBuckets = histSub * (histOctaves + 1)
)

func (h *hist) record(d time.Duration) {
	v := uint64(max(d, 0))
	i := int(v)
	if v >= histSub {
		e := bits.Len64(v) - 6 // v>>e lies in [32, 64)
		i = (e+1)*histSub + int(v>>e) - histSub
	}
	i = min(i, histBuckets-1)
	h.counts[i]++
	h.sums[i] += v
	h.n++
}

func (h *hist) add(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
		h.sums[i] += o.sums[i]
	}
}

// quantile returns the nearest-rank q-quantile in microseconds: the
// mean of its bucket, moved by the rank's position within the bucket
// as if the bucket's samples were spread evenly across its width. A
// bucket holding one sample returns that sample exactly.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Max(1, math.Ceil(q*float64(h.n))))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+uint64(c) < rank {
			cum += uint64(c)
			continue
		}
		width := 1.0
		if i >= histSub {
			width = float64(uint64(1) << (i/histSub - 1))
		}
		mean := float64(h.sums[i]) / float64(c)
		return (mean + width*((float64(rank-cum)-0.5)/float64(c)-0.5)) / 1e3
	}
	return 0
}
