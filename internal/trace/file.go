package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// File format
//
// Traces serialize to a compact stream designed for the repetitive
// structure of value traces: PCs repeat heavily and values are often
// close to the previous value produced at the same PC. The format is
//
//	magic   "VTR1" (4 bytes)
//	count   uvarint — number of events
//	events  count records:
//	          pcDelta  varint  — PC minus previous event's PC (signed)
//	          value    uvarint — the produced value, zig-zag encoded
//	                              against the previous value seen at
//	                              *any* PC (cheap, still effective)
//
// The deltas routinely compress a trace to ~3 bytes/event versus 8 raw.

const fileMagic = "VTR1"

// ErrBadMagic reports that a stream does not start with the trace
// file magic.
var ErrBadMagic = errors.New("trace: bad magic (not a VTR1 trace file)")

// Write serializes t to w in the VTR1 format.
func Write(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(t)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	var prevPC, prevVal uint32
	for _, e := range t {
		n = binary.PutVarint(buf[:], int64(int32(e.PC-prevPC)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		n = binary.PutVarint(buf[:], int64(int32(e.Value-prevVal)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prevPC, prevVal = e.PC, e.Value
	}
	return bw.Flush()
}

// Read deserializes a VTR1 trace from r.
func Read(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, ErrBadMagic
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxReasonable = 1 << 31
	if count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// The count is only a claim until the events arrive: a few bytes
	// can claim 2^31 events, so the initial capacity is capped and
	// append grows the slice as events actually decode.
	t := make(Trace, 0, min(count, 1<<16))
	var prevPC, prevVal uint32
	for i := uint64(0); i < count; i++ {
		dpc, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d pc: %w", i, err)
		}
		dv, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d value: %w", i, err)
		}
		prevPC += uint32(int32(dpc))
		prevVal += uint32(int32(dv))
		t = append(t, Event{PC: prevPC, Value: prevVal})
	}
	return t, nil
}
