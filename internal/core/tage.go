package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hash"
)

// TAGE is a tagged geometric-history value predictor (VTAGE): the
// TAGE idea of branch prediction (Seznec & Michaud) transplanted onto
// the DFCM paper's differential framing. A DFCM-style base component
// keeps, per static instruction, the last value and a fallback stride;
// on top of it sit N tagged tables whose indices and partial tags mix
// PC entropy with folded registers over a shared global stride
// history, at geometrically increasing history lengths. Prediction is
// lastValue + stride, where the stride comes from the matching tagged
// entry with the longest history (the provider) — or, when the
// provider has never been confirmed, from the next-longest match (the
// altpred) — and from the base when nothing matches.
//
// Tagged entries carry a 2-bit stride confidence and a 2-bit
// usefulness counter. Usefulness trains only on decisive predictions
// (provider and altpred disagreed); a misprediction allocates fresh
// entries in up to tageMaxAlloc longer-history tables, stealing only
// u==0 victims, and decays the u counters of the candidate set when
// every victim is useful — the allocation throttle that keeps a
// thrashing workload from wiping the predictor. All u counters are
// additionally aged every tageAgePeriod updates (alternately clearing
// the high and low bit), so long-dead entries eventually free up.
//
// Everything is deterministic: allocation starts right after the
// provider and skips one table per grant instead of using the RNG of
// hardware TAGE implementations, so replays and the engine's
// equivalence oracle stay bit-exact.
//
// Like DFCM, the tagged tables and the base store strides truncated to
// strideBits and sign-extend them back on use, so narrow-stride
// configurations shrink the dominant storage term.
type TAGE struct {
	l1bits     uint
	l2bits     uint // log2 entries per tagged table
	tagBits    uint
	strideBits uint
	nTables    int
	histLens   []uint // per-table history length in events, non-decreasing

	l1mask     uint32
	idxMask    uint32
	tagMask    uint32
	strideMask uint32
	extShift   uint

	// Folded-history geometry, three registers per table (index, tag
	// low, tag high), immutable after construction. foldLen is the
	// table's history window in bits, foldWidth the compressed register
	// width, foldOut the precomputed foldLen % foldWidth of the
	// outgoing-bit cancellation.
	foldWidth []uint
	foldLen   []uint
	foldOut   []uint

	// Base component (the order-0 differential predictor).
	last    []uint32 // last value per static instruction
	bstride []uint32 // fallback stride, truncated to strideBits

	// Tagged tables, structure-of-arrays: table t entry i lives at
	// t<<l2bits + i in each slice.
	tags    []uint32 // partial tags, tagBits wide
	strides []uint32 // predicted strides, truncated to strideBits
	conf    []uint8  // 2-bit stride confidence
	ubits   []uint8  // 2-bit usefulness

	// Global stride history: tageBitsPerEvent bits of each update's
	// folded stride, in a ring of one bit per byte. tick counts
	// updates; the write position and the folded registers are derived
	// from (ring, tick) and rebuilt on restore rather than serialized.
	ring     []uint8
	ringMask uint32
	tick     uint64

	fold []uint32 // derived: 3 registers per table (idx, tag0, tag1)
	pos  uint32   // derived: next ring write position
}

// VTAGE geometry limits and policy constants.
const (
	// TAGEMaxTables bounds the tagged-table count a spec may request.
	TAGEMaxTables = 12
	// TAGEMaxHist bounds the longest history length in events.
	TAGEMaxHist = 128

	// tageBitsPerEvent is how many bits of each update's folded stride
	// enter the global history; a table with history length L sees a
	// window of L*tageBitsPerEvent bits.
	tageBitsPerEvent = 4
	// tageConfMax / tageUMax are the saturation points of the 2-bit
	// per-entry counters.
	tageConfMax = 3
	tageUMax    = 3
	// tageMaxAlloc caps how many tables a single misprediction may
	// allocate into.
	tageMaxAlloc = 2
	// tageAgePeriod is the u-counter aging interval in updates:
	// every period, one of the two u bits (alternating) is cleared
	// across all tables.
	tageAgePeriod = 1 << 18
)

// TAGEHistorySeries returns the n geometrically spaced history lengths
// between hmin and hmax (in events), endpoints exact, the series
// non-decreasing. n == 1 collapses to the single longest history;
// hmin == hmax yields the degenerate equal-length series.
func TAGEHistorySeries(n int, hmin, hmax uint) []uint {
	out := make([]uint, n)
	if n == 1 {
		out[0] = hmax
		return out
	}
	ratio := math.Pow(float64(hmax)/float64(hmin), 1/float64(n-1))
	l := float64(hmin)
	for i := range out {
		v := uint(math.Round(l))
		switch {
		case i == 0:
			v = hmin
		case i == n-1:
			v = hmax
		case v < out[i-1]:
			v = out[i-1]
		case v > hmax:
			v = hmax
		}
		out[i] = v
		l *= ratio
	}
	return out
}

// NewTAGE returns a VTAGE with a 2^l1bits-entry base, nTables tagged
// tables of 2^l2bits entries each, tagBits-wide partial tags,
// strideBits-wide stored strides, and history lengths geometrically
// spaced from hmin to hmax events. It panics on out-of-range geometry
// (programming errors); Spec.New validates the same ranges with errors
// for flag- and network-borne specs.
func NewTAGE(l1bits, l2bits, strideBits uint, nTables int, tagBits, hmin, hmax uint) *TAGE {
	checkBits("TAGE base", l1bits, 30)
	checkBits("TAGE tagged", l2bits, 30)
	if strideBits == 0 || strideBits > 32 {
		panic(fmt.Sprintf("core: TAGE stride width %d out of range [1,32]", strideBits))
	}
	if nTables < 1 || nTables > TAGEMaxTables {
		panic(fmt.Sprintf("core: TAGE table count %d out of range [1,%d]", nTables, TAGEMaxTables))
	}
	if tagBits < 4 || tagBits > 16 {
		panic(fmt.Sprintf("core: TAGE tag width %d out of range [4,16]", tagBits))
	}
	if hmin < 1 || hmax < hmin || hmax > TAGEMaxHist {
		panic(fmt.Sprintf("core: TAGE history series %d..%d out of range [1,%d]", hmin, hmax, TAGEMaxHist))
	}
	hists := TAGEHistorySeries(nTables, hmin, hmax)

	// The ring must out-live the longest fold window: one bit per byte,
	// power-of-two sized so the write position wraps with a mask.
	maxBits := hmax * tageBitsPerEvent
	ringLen := uint32(1)
	for ringLen <= uint32(maxBits) {
		ringLen <<= 1
	}

	p := &TAGE{
		l1bits:     l1bits,
		l2bits:     l2bits,
		tagBits:    tagBits,
		strideBits: strideBits,
		nTables:    nTables,
		histLens:   hists,
		l1mask:     uint32(1<<l1bits) - 1,
		idxMask:    uint32(1<<l2bits) - 1,
		tagMask:    uint32(1<<tagBits) - 1,
		strideMask: uint32((uint64(1) << strideBits) - 1),
		extShift:   32 - strideBits,
		foldWidth:  make([]uint, 3*nTables),
		foldLen:    make([]uint, 3*nTables),
		foldOut:    make([]uint, 3*nTables),
		last:       make([]uint32, 1<<l1bits),
		bstride:    make([]uint32, 1<<l1bits),
		tags:       make([]uint32, nTables<<l2bits),
		strides:    make([]uint32, nTables<<l2bits),
		conf:       make([]uint8, nTables<<l2bits),
		ubits:      make([]uint8, nTables<<l2bits),
		ring:       make([]uint8, ringLen),
		ringMask:   ringLen - 1,
		fold:       make([]uint32, 3*nTables),
	}
	for t := 0; t < nTables; t++ {
		bits := hists[t] * tageBitsPerEvent
		// Index register folds to l2bits; the two tag registers fold to
		// tagBits and tagBits-1, the classic staggered pair that keeps
		// tag aliasing from tracking index aliasing.
		for r, w := range [3]uint{l2bits, tagBits, tagBits - 1} {
			if w == 0 {
				w = 1 // l2bits can legally be tiny; a 0-width register cannot fold
			}
			i := 3*t + r
			p.foldWidth[i] = w
			p.foldLen[i] = bits
			p.foldOut[i] = bits % w
		}
	}
	return p
}

// tableIndex mixes PC entropy with the table's folded index register.
// The per-table extra shift decorrelates the tables' index streams so
// one hot PC does not collide at the same slot in every table.
func (p *TAGE) tableIndex(t int, pcw uint32) uint32 {
	return (pcw ^ (pcw >> (uint(t) + 1)) ^ p.fold[3*t]) & p.idxMask
}

// tableTag builds the partial tag from XOR'd PC entropy and the two
// staggered folded tag registers.
func (p *TAGE) tableTag(t int, pcw uint32) uint32 {
	return (pcw ^ (pcw >> p.tagBits) ^ p.fold[3*t+1] ^ (p.fold[3*t+2] << 1)) & p.tagMask
}

// pushHistory folds one update's history bits into the ring and all
// 3*nTables folded registers. Each bit advances every register by the
// classic TAGE recurrence: shift in the new bit, cancel the bit
// leaving the window at its precomputed fold position, wrap the
// carry. Registers therefore always equal the from-scratch fold of
// their window (pinned by TestTAGEFoldedHistoryMatchesScratch).
func (p *TAGE) pushHistory(bits uint32) {
	n3 := 3 * p.nTables
	for b := uint(0); b < tageBitsPerEvent; b++ {
		in := (bits >> b) & 1
		pos := p.pos
		for r := 0; r < n3; r++ {
			out := uint32(p.ring[(pos-uint32(p.foldLen[r]))&p.ringMask])
			w := p.foldWidth[r]
			c := p.fold[r]
			c = (c << 1) | in
			c ^= out << p.foldOut[r]
			c ^= c >> w
			c &= uint32(1)<<w - 1
			p.fold[r] = c
		}
		p.ring[pos] = uint8(in)
		p.pos = (pos + 1) & p.ringMask
	}
}

// rebuildFolds recomputes the derived write position and folded
// registers from the ring and update count — the from-scratch fold the
// incremental pushHistory recurrence maintains. Restore and Reset use
// it so the derived registers never need to be serialized or trusted.
func (p *TAGE) rebuildFolds() {
	bits := p.tick * tageBitsPerEvent
	p.pos = uint32(bits) & p.ringMask
	for r := range p.fold {
		w := p.foldWidth[r]
		var c uint32
		for j := uint64(0); j < uint64(p.foldLen[r]) && j < bits; j++ {
			c ^= uint32(p.ring[uint32(bits-1-j)&p.ringMask]) << (uint(j) % w)
		}
		p.fold[r] = c
	}
}

// Predict returns the base last value plus the stride of the
// longest-history tag match; an unconfirmed provider (conf 0) defers
// to the alternate prediction, and no match at all falls back to the
// base stride.
func (p *TAGE) Predict(pc uint32) uint32 {
	pcw := pc >> 2
	bi := pcw & p.l1mask
	stride := signExtend(p.bstride[bi], p.extShift)
	altStride := stride
	provConf := uint8(0)
	found := 0
	for t := p.nTables - 1; t >= 0; t-- {
		e := uint32(t)<<p.l2bits + p.tableIndex(t, pcw)
		if p.tags[e] == p.tableTag(t, pcw) {
			if found == 0 {
				stride = signExtend(p.strides[e], p.extShift)
				provConf = p.conf[e]
				found = 1
			} else {
				altStride = signExtend(p.strides[e], p.extShift)
				break
			}
		}
	}
	if found != 0 && provConf == 0 {
		stride = altStride
	}
	return p.last[bi] + stride
}

// Update trains the provider's stride confidence and usefulness,
// allocates into longer-history tables on a misprediction (throttled
// u==0 victim selection), refreshes the base component, folds the new
// stride into the global history, and ages the u counters
// periodically.
func (p *TAGE) Update(pc, value uint32) {
	pcw := pc >> 2
	bi := pcw & p.l1mask
	actual := value - p.last[bi]

	// Recompute what Predict saw: indices, tags, provider, altpred —
	// all against the pre-update folded history.
	var idxs, tgs [TAGEMaxTables]uint32
	for t := 0; t < p.nTables; t++ {
		idxs[t] = p.tableIndex(t, pcw)
		tgs[t] = p.tableTag(t, pcw)
	}
	provider, alt := -1, -1
	for t := p.nTables - 1; t >= 0; t-- {
		if p.tags[uint32(t)<<p.l2bits+idxs[t]] == tgs[t] {
			if provider < 0 {
				provider = t
			} else {
				alt = t
				break
			}
		}
	}
	base := signExtend(p.bstride[bi], p.extShift)
	altStride := base
	if alt >= 0 {
		altStride = signExtend(p.strides[uint32(alt)<<p.l2bits+idxs[alt]], p.extShift)
	}
	finalStride, provStride := base, base
	if provider >= 0 {
		e := uint32(provider)<<p.l2bits + idxs[provider]
		provStride = signExtend(p.strides[e], p.extShift)
		if p.conf[e] == 0 {
			finalStride = altStride
		} else {
			finalStride = provStride
		}
	}

	// Provider training: confidence tracks whether the stored stride
	// keeps recurring; the stride is replaced only at confidence 0, so
	// a single outlier cannot wipe a confirmed pattern. Usefulness
	// trains only when the provider actually decided something.
	if provider >= 0 {
		e := uint32(provider)<<p.l2bits + idxs[provider]
		switch {
		case provStride == actual:
			if p.conf[e] < tageConfMax {
				p.conf[e]++
			}
		case p.conf[e] > 0:
			p.conf[e]--
		default:
			p.strides[e] = actual & p.strideMask
		}
		if provStride != altStride {
			if provStride == actual {
				if p.ubits[e] < tageUMax {
					p.ubits[e]++
				}
			} else if p.ubits[e] > 0 {
				p.ubits[e]--
			}
		}
	}

	// Multi-table allocation on misprediction: claim up to
	// tageMaxAlloc u==0 victims in longer-history tables, skipping a
	// table after each grant to spread new entries across the series.
	// When every candidate is useful, decay them all instead — the
	// throttle that trades one allocation round for pressure relief.
	if finalStride != actual && provider < p.nTables-1 {
		allocated := 0
		for t := provider + 1; t < p.nTables && allocated < tageMaxAlloc; t++ {
			e := uint32(t)<<p.l2bits + idxs[t]
			if p.ubits[e] == 0 {
				p.tags[e] = tgs[t]
				p.strides[e] = actual & p.strideMask
				p.conf[e] = 0
				allocated++
				t++
			}
		}
		if allocated == 0 {
			for t := provider + 1; t < p.nTables; t++ {
				p.ubits[uint32(t)<<p.l2bits+idxs[t]]--
			}
		}
	}

	// Base component: DFCM-style, always store the newest stride.
	p.bstride[bi] = actual & p.strideMask
	p.last[bi] = value

	p.pushHistory(uint32(hash.Fold(uint64(actual), tageBitsPerEvent)))
	p.tick++
	if p.tick%tageAgePeriod == 0 {
		m := uint8(0b01)
		if (p.tick/tageAgePeriod)&1 == 1 {
			m = 0b10
		}
		for i := range p.ubits {
			p.ubits[i] &= m
		}
	}
}

// Provider returns the index of the tagged table that would provide
// the prediction for pc (0 = shortest history), or -1 when the base
// component would. Diagnostics only (cmd/vpstate); the hot path
// inlines the same scan.
func (p *TAGE) Provider(pc uint32) int {
	pcw := pc >> 2
	for t := p.nTables - 1; t >= 0; t-- {
		e := uint32(t)<<p.l2bits + p.tableIndex(t, pcw)
		if p.tags[e] == p.tableTag(t, pcw) {
			return t
		}
	}
	return -1
}

// NumTables returns the tagged-table count.
func (p *TAGE) NumTables() int { return p.nTables }

// HistoryLengths returns the per-table history series in events.
func (p *TAGE) HistoryLengths() []uint {
	return append([]uint(nil), p.histLens...)
}

// UHistogram counts table t's entries per usefulness level (u = 0..3).
func (p *TAGE) UHistogram(t int) [tageUMax + 1]int {
	var h [tageUMax + 1]int
	lo := t << p.l2bits
	for _, u := range p.ubits[lo : lo+1<<p.l2bits] {
		h[u]++
	}
	return h
}

// ProviderHistogram scans every base-table slot (one representative PC
// per slot) and counts which table would provide its prediction;
// index nTables counts base-provided slots. A cheap occupancy-style
// view of how the history series is actually being used.
func (p *TAGE) ProviderHistogram() []int {
	h := make([]int, p.nTables+1)
	for i := uint32(0); i <= p.l1mask; i++ {
		t := p.Provider(i << 2)
		if t < 0 {
			t = p.nTables
		}
		h[t]++
	}
	return h
}

// DivergingEntries counts, per tagged table, the entries whose
// (tag, stride, conf, u) tuple differs between p and o. The second
// result is false when the two predictors' geometries differ.
func (p *TAGE) DivergingEntries(o *TAGE) ([]int, bool) {
	if p.nTables != o.nTables || p.l2bits != o.l2bits {
		return nil, false
	}
	out := make([]int, p.nTables)
	for t := 0; t < p.nTables; t++ {
		lo := t << p.l2bits
		for i := lo; i < lo+1<<p.l2bits; i++ {
			if p.tags[i] != o.tags[i] || p.strides[i] != o.strides[i] ||
				p.conf[i] != o.conf[i] || p.ubits[i] != o.ubits[i] {
				out[t]++
			}
		}
	}
	return out, true
}

// Reset implements Resetter: flat word-level clears of every mutable
// table plus the derived registers; the immutable fold geometry
// stays.
func (p *TAGE) Reset() {
	clear(p.last)
	clear(p.bstride)
	clear(p.tags)
	clear(p.strides)
	clear(p.conf)
	clear(p.ubits)
	clear(p.ring)
	p.tick = 0
	clear(p.fold)
	p.pos = 0
}

// AppendState implements Snapshotter: base rows, then the tagged SoA
// slices in declaration order, then the history ring (one byte per
// bit) and the update count. The folded registers and write position
// are derived from (ring, tick) and rebuilt on restore.
func (p *TAGE) AppendState(b []byte) []byte {
	for i := range p.last {
		b = binary.BigEndian.AppendUint32(b, p.last[i])
	}
	for _, v := range p.bstride {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	for _, v := range p.tags {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	for _, v := range p.strides {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	b = append(b, p.conf...)
	b = append(b, p.ubits...)
	b = append(b, p.ring...)
	return binary.BigEndian.AppendUint64(b, p.tick)
}

// RestoreState implements Snapshotter. Every stored field is
// range-checked against the configured geometry — strides and tags
// must fit their widths, counters their two bits, ring bytes must be
// single bits — and the derived folded registers are recomputed from
// the restored window instead of being trusted from the wire.
func (p *TAGE) RestoreState(data []byte) error {
	want := 4*len(p.last) + 4*len(p.bstride) + 4*len(p.tags) + 4*len(p.strides) +
		len(p.conf) + len(p.ubits) + len(p.ring) + 8
	if len(data) != want {
		return stateSizeErr("tage", want, len(data))
	}
	for i := range p.last {
		p.last[i] = binary.BigEndian.Uint32(data[4*i:])
	}
	data = data[4*len(p.last):]
	for i := range p.bstride {
		v := binary.BigEndian.Uint32(data[4*i:])
		if v&p.strideMask != v {
			return fmt.Errorf("%w: tage base stride %#x wider than %d bits", ErrState, v, p.strideBits)
		}
		p.bstride[i] = v
	}
	data = data[4*len(p.bstride):]
	for i := range p.tags {
		v := binary.BigEndian.Uint32(data[4*i:])
		if v&p.tagMask != v {
			return fmt.Errorf("%w: tage tag %#x wider than %d bits", ErrState, v, p.tagBits)
		}
		p.tags[i] = v
	}
	data = data[4*len(p.tags):]
	for i := range p.strides {
		v := binary.BigEndian.Uint32(data[4*i:])
		if v&p.strideMask != v {
			return fmt.Errorf("%w: tage stride %#x wider than %d bits", ErrState, v, p.strideBits)
		}
		p.strides[i] = v
	}
	data = data[4*len(p.strides):]
	for i := range p.conf {
		if data[i] > tageConfMax {
			return fmt.Errorf("%w: tage confidence %d exceeds %d", ErrState, data[i], tageConfMax)
		}
		p.conf[i] = data[i]
	}
	data = data[len(p.conf):]
	for i := range p.ubits {
		if data[i] > tageUMax {
			return fmt.Errorf("%w: tage usefulness %d exceeds %d", ErrState, data[i], tageUMax)
		}
		p.ubits[i] = data[i]
	}
	data = data[len(p.ubits):]
	for i := range p.ring {
		if data[i] > 1 {
			return fmt.Errorf("%w: tage history byte %#x is not a bit", ErrState, data[i])
		}
		p.ring[i] = data[i]
	}
	p.tick = binary.BigEndian.Uint64(data[len(p.ring):])
	p.rebuildFolds()
	return nil
}

// StateTables implements StateTabler: the base table, one entry per
// tagged table, and the history ring.
func (p *TAGE) StateTables() []TableInfo {
	baseLive := 0
	for i := range p.last {
		if p.last[i] != 0 || p.bstride[i] != 0 {
			baseLive++
		}
	}
	out := []TableInfo{{Name: "base", Entries: len(p.last), Live: baseLive}}
	for t := 0; t < p.nTables; t++ {
		lo := t << p.l2bits
		live := 0
		for i := lo; i < lo+1<<p.l2bits; i++ {
			if p.tags[i] != 0 || p.strides[i] != 0 || p.conf[i] != 0 || p.ubits[i] != 0 {
				live++
			}
		}
		out = append(out, TableInfo{
			Name:    fmt.Sprintf("t%d(h%d)", t+1, p.histLens[t]),
			Entries: 1 << p.l2bits,
			Live:    live,
		})
	}
	histLive := 0
	for _, b := range p.ring {
		if b != 0 {
			histLive++
		}
	}
	out = append(out, TableInfo{Name: "hist", Entries: len(p.ring), Live: histLive})
	return out
}

// Name implements Predictor.
func (p *TAGE) Name() string {
	n := fmt.Sprintf("tage-2^%d+%dx2^%d/t%d/h%d..%d",
		p.l1bits, p.nTables, p.l2bits, p.tagBits,
		p.histLens[0], p.histLens[p.nTables-1])
	if p.strideBits != 32 {
		n += fmt.Sprintf("/w%d", p.strideBits)
	}
	return n
}

// SizeBits implements Predictor: the base rows (32-bit last value +
// stored stride), the tagged entries (tag + stride + 2-bit confidence
// + 2-bit usefulness), and the longest global history window.
func (p *TAGE) SizeBits() int64 {
	base := int64(len(p.last)) * int64(32+p.strideBits)
	tagged := int64(len(p.tags)) * int64(p.tagBits+p.strideBits+4)
	hist := int64(p.histLens[p.nTables-1]) * tageBitsPerEvent
	return base + tagged + hist
}
