// Package snapshot defines the durable container for predictor state:
// a versioned, length-prefixed, CRC32-checksummed binary format
// ("VPSS") wrapping the raw state bytes that core.Snapshotter exports.
// internal/serve checkpoints sessions through it, cmd/vpserve
// warm-starts from it, and cmd/vpstate inspects it.
//
// # File format (version 1)
//
// All integers are big-endian, matching the VP1 wire protocol.
//
//	header (8 bytes):
//	  magic    u32  0x56505353 ("VPSS")
//	  version  u16  1
//	  reserved u16  0
//	sections, each:
//	  kind     u8
//	  length   u32  payload bytes, bounded by MaxState
//	  payload  length bytes
//	end section:
//	  kind     u8   0xFF
//	  length   u32  4
//	  crc      u32  CRC32-IEEE of every preceding byte (header through
//	                the end section's length field)
//
// Version-1 sections:
//
//	spec  (0x01) kindLen u8, kind bytes, l1 u8, l2 u8, width u8, delay u32
//	meta  (0x02) session u64, predictions u64, hits u64, updates u64
//	state (0x03) raw core.Snapshotter state bytes
//	specx (0x04) tables u8, tag u8, hmin u16, hmax u16 — the tagged-
//	             predictor geometry fields added with the tage kind.
//	             Written only when some field is nonzero, exactly the
//	             "minor extension = new optional section" rule below:
//	             pre-tage readers skip it, pre-tage files omit it.
//
// spec and state are required; meta and specx are optional. Sections
// appear at most once each.
//
// # Versioning rules
//
// Decoders accept any version in [1, Version] — old snapshots keep
// loading forever. Unknown section kinds are skipped (their bytes
// still feed the checksum), so a minor format extension is a new
// section kind: old files stay readable because the section is
// optional, and files written by newer code degrade gracefully under
// older readers. The version number is bumped only when an existing
// section's layout changes incompatibly; a version-(n+1) decoder then
// dispatches on the version it read.
//
// A state layout that changes under an unchanged spec kind needs no
// bump when no old blob can restore under the new layout. The hybrid
// kind is the one case: it once built the perfect-meta oracle, whose
// state was a nested stride block then a nested FCM block, and now
// builds the realizable chooser, whose state leads with its 2^l1
// counters before the same two blocks. An old blob is therefore always
// exactly 2^l1 bytes short, the components' exact-length checks refuse
// it, and a warm start skips and counts it like any unrestorable file.
//
// Decode must bound every claimed length before allocating — the same
// proto-bounds discipline vplint enforces on the VP1 decoders applies
// here (and to this package, see internal/analysis).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
)

// Format constants.
const (
	magic   = 0x56505353 // "VPSS"
	Version = 1

	// MaxState bounds any single section, and therefore the state blob
	// a decoder will allocate. 256 MiB holds every constructible
	// predictor up to l1≈24; raising it is a format-compatible change.
	MaxState = 1 << 28

	headerSize  = 8
	sectionSize = 5 // kind u8 + length u32
)

// Section kinds.
const (
	secSpec  = 0x01
	secMeta  = 0x02
	secState = 0x03
	secSpecX = 0x04
	secEnd   = 0xFF
)

// Format errors.
var (
	ErrBadMagic       = errors.New("snapshot: bad magic")
	ErrVersion        = errors.New("snapshot: unsupported format version")
	ErrChecksum       = errors.New("snapshot: checksum mismatch")
	ErrSectionSize    = errors.New("snapshot: section exceeds maximum size")
	ErrCorrupt        = errors.New("snapshot: corrupt section structure")
	ErrMissingSection = errors.New("snapshot: required section missing")
)

// Meta carries session-level counters alongside the state, so a
// warm-started server resumes its Stats where the checkpoint left off.
type Meta struct {
	Session     uint64
	Predictions uint64
	Hits        uint64
	Updates     uint64
}

// Snapshot is one decoded predictor checkpoint.
type Snapshot struct {
	Version uint16
	Spec    core.Spec
	Meta    Meta
	State   []byte
}

// Capture freezes p's complete state under the spec that built it.
// It fails if p cannot export its state.
func Capture(spec core.Spec, p core.Predictor, meta Meta) (*Snapshot, error) {
	s, ok := p.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("snapshot: %s does not implement core.Snapshotter", p.Name())
	}
	return &Snapshot{
		Version: Version,
		Spec:    spec,
		Meta:    meta,
		State:   s.AppendState(nil),
	}, nil
}

// Restore builds a fresh predictor from the snapshot's spec and loads
// the captured state into it, leaving it byte-equivalent to the
// predictor Capture saw. The spec's tables are bounded by the state
// before they are built, so a short blob from a network peer cannot
// make Restore allocate tables it could never fill.
func (s *Snapshot) Restore() (core.Snapshotter, error) {
	if need := minStateBytes(s.Spec); uint64(len(s.State)) < need {
		return nil, fmt.Errorf("%w: %d state bytes cannot fill the tables of %s l1=%d l2=%d (need at least %d)",
			core.ErrState, len(s.State), s.Spec.Kind, s.Spec.L1, s.Spec.L2, need)
	}
	p, err := s.Spec.New()
	if err != nil {
		return nil, fmt.Errorf("snapshot: spec: %w", err)
	}
	if err := p.RestoreState(s.State); err != nil {
		return nil, err
	}
	return p, nil
}

// minStateBytes is a lower bound on the state any predictor built
// from spec exports: every kind serializes each level-1 entry, and
// each level-2 (or tagged-table) entry of the kinds that have one, in
// at least four bytes. Widths past 32 saturate the shift; New rejects
// them anyway.
func minStateBytes(spec core.Spec) uint64 {
	c := spec.Canonical()
	n := uint64(4) << min(c.L1, 32)
	if c.L2 > 0 {
		n += uint64(4) << min(c.L2, 32)
	}
	return n
}

// crcWriter checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// crcReader checksums everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Encode writes the snapshot to w in format version Version. It
// refuses states larger than MaxState — such a file could never be
// decoded again.
func (s *Snapshot) Encode(w io.Writer) error {
	if len(s.State) > MaxState {
		return fmt.Errorf("%w: state is %d bytes", ErrSectionSize, len(s.State))
	}
	spec, err := encodeSpec(s.Spec)
	if err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	binary.BigEndian.PutUint16(hdr[4:], Version)
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeSection(cw, secSpec, spec); err != nil {
		return err
	}
	if specx, err := encodeSpecExt(s.Spec); err != nil {
		return err
	} else if specx != nil {
		if err := writeSection(cw, secSpecX, specx); err != nil {
			return err
		}
	}
	if err := writeSection(cw, secMeta, encodeMeta(s.Meta)); err != nil {
		return err
	}
	if err := writeSection(cw, secState, s.State); err != nil {
		return err
	}
	var end [sectionSize]byte
	end[0] = secEnd
	binary.BigEndian.PutUint32(end[1:], 4)
	if _, err := cw.Write(end[:]); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], cw.crc)
	_, err = w.Write(sum[:]) // the checksum does not checksum itself
	return err
}

// writeSection emits one {kind, length, payload} section.
func writeSection(w io.Writer, kind byte, payload []byte) error {
	var hdr [sectionSize]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Decode reads one snapshot from r with the default MaxState section
// bound.
func Decode(r io.Reader) (*Snapshot, error) {
	return DecodeMax(r, MaxState)
}

// DecodeMax is Decode with an explicit per-section size bound. Every
// claimed length is validated against the bound before any allocation,
// so a hostile header cannot force an oversized buffer.
func DecodeMax(r io.Reader, maxSection int) (*Snapshot, error) {
	if maxSection <= 0 || maxSection > MaxState {
		maxSection = MaxState
	}
	cr := &crcReader{r: r}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.BigEndian.Uint16(hdr[4:])
	if version == 0 || version > Version {
		return nil, fmt.Errorf("%w: version %d (this build reads 1..%d)", ErrVersion, version, Version)
	}
	if binary.BigEndian.Uint16(hdr[6:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved header field", ErrCorrupt)
	}

	s := &Snapshot{Version: version}
	var ext specExt
	seen := make(map[byte]bool)
	for {
		var sh [sectionSize]byte
		if _, err := io.ReadFull(cr, sh[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section header: %w", err)
		}
		kind := sh[0]
		length := binary.BigEndian.Uint32(sh[1:])
		if kind == secEnd {
			if length != 4 {
				return nil, fmt.Errorf("%w: end section length %d", ErrCorrupt, length)
			}
			want := cr.crc
			var sum [4]byte
			if _, err := io.ReadFull(r, sum[:]); err != nil {
				return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
			}
			if binary.BigEndian.Uint32(sum[:]) != want {
				return nil, ErrChecksum
			}
			break
		}
		if uint64(length) > uint64(maxSection) {
			return nil, fmt.Errorf("%w: section %#x claims %d bytes (bound %d)", ErrSectionSize, kind, length, maxSection)
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section %#x", ErrCorrupt, kind)
		}
		seen[kind] = true
		switch kind {
		case secSpec, secMeta, secState, secSpecX:
			payload := make([]byte, length)
			if _, err := io.ReadFull(cr, payload); err != nil {
				return nil, fmt.Errorf("snapshot: reading %d-byte section %#x: %w", length, kind, err)
			}
			var err error
			switch kind {
			case secSpec:
				s.Spec, err = decodeSpec(payload)
			case secMeta:
				s.Meta, err = decodeMeta(payload)
			case secState:
				s.State = payload
			case secSpecX:
				ext, err = decodeSpecExt(payload)
			}
			if err != nil {
				return nil, err
			}
		default:
			// Unknown kind: a newer writer's optional section. Skip its
			// bytes (still checksummed) without materializing them.
			if _, err := io.CopyN(io.Discard, cr, int64(length)); err != nil {
				return nil, fmt.Errorf("snapshot: skipping %d-byte section %#x: %w", length, kind, err)
			}
		}
	}
	if !seen[secSpec] {
		return nil, fmt.Errorf("%w: spec", ErrMissingSection)
	}
	if !seen[secState] {
		return nil, fmt.Errorf("%w: state", ErrMissingSection)
	}
	// The extension section merges after the loop, so its effect does
	// not depend on section order.
	s.Spec.Tables, s.Spec.Tag = ext.tables, ext.tag
	s.Spec.HistMin, s.Spec.HistMax = ext.hmin, ext.hmax
	return s, nil
}

// specExt is the decoded 0x04 section: the Spec fields that postdate
// the version-1 spec layout.
type specExt struct {
	tables, tag, hmin, hmax uint
}

// encodeSpecExt serializes the extended geometry fields, or returns
// nil when all are zero (the section is omitted and the file stays
// readable by pre-tage builds).
func encodeSpecExt(spec core.Spec) ([]byte, error) {
	if spec.Tables == 0 && spec.Tag == 0 && spec.HistMin == 0 && spec.HistMax == 0 {
		return nil, nil
	}
	if spec.Tables > math.MaxUint8 || spec.Tag > math.MaxUint8 ||
		spec.HistMin > math.MaxUint16 || spec.HistMax > math.MaxUint16 {
		return nil, fmt.Errorf("%w: spec extension field out of field width", ErrCorrupt)
	}
	b := make([]byte, 0, 6)
	b = append(b, byte(spec.Tables), byte(spec.Tag))
	b = binary.BigEndian.AppendUint16(b, uint16(spec.HistMin))
	return binary.BigEndian.AppendUint16(b, uint16(spec.HistMax)), nil
}

// decodeSpecExt parses a spec-extension section.
func decodeSpecExt(p []byte) (specExt, error) {
	if len(p) != 6 {
		return specExt{}, fmt.Errorf("%w: spec extension section is %d bytes, want 6", ErrCorrupt, len(p))
	}
	return specExt{
		tables: uint(p[0]),
		tag:    uint(p[1]),
		hmin:   uint(binary.BigEndian.Uint16(p[2:])),
		hmax:   uint(binary.BigEndian.Uint16(p[4:])),
	}, nil
}

// encodeSpec serializes a core.Spec. The numeric fields are validated
// against the format's field widths; Spec.New enforces the tighter
// semantic ranges at restore time.
func encodeSpec(spec core.Spec) ([]byte, error) {
	if len(spec.Kind) > math.MaxUint8 {
		return nil, fmt.Errorf("%w: predictor kind %d bytes long", ErrCorrupt, len(spec.Kind))
	}
	if spec.L1 > math.MaxUint8 || spec.L2 > math.MaxUint8 || spec.Width > math.MaxUint8 {
		return nil, fmt.Errorf("%w: spec field out of field width", ErrCorrupt)
	}
	if spec.Delay < 0 || int64(spec.Delay) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: spec delay %d", ErrCorrupt, spec.Delay)
	}
	b := make([]byte, 0, 1+len(spec.Kind)+3+4)
	b = append(b, byte(len(spec.Kind)))
	b = append(b, spec.Kind...)
	b = append(b, byte(spec.L1), byte(spec.L2), byte(spec.Width))
	return binary.BigEndian.AppendUint32(b, uint32(spec.Delay)), nil
}

// decodeSpec parses a spec section, length-checking the claimed kind
// string against the bytes that arrived.
func decodeSpec(p []byte) (core.Spec, error) {
	if len(p) < 1 {
		return core.Spec{}, fmt.Errorf("%w: empty spec section", ErrCorrupt)
	}
	kindLen := int(p[0])
	if len(p) != 1+kindLen+3+4 {
		return core.Spec{}, fmt.Errorf("%w: spec section is %d bytes for a %d-byte kind", ErrCorrupt, len(p), kindLen)
	}
	kind := string(p[1 : 1+kindLen])
	rest := p[1+kindLen:]
	return core.Spec{
		Kind:  kind,
		L1:    uint(rest[0]),
		L2:    uint(rest[1]),
		Width: uint(rest[2]),
		Delay: int(binary.BigEndian.Uint32(rest[3:])),
	}, nil
}

// encodeMeta serializes the session counters.
func encodeMeta(m Meta) []byte {
	b := make([]byte, 0, 32)
	b = binary.BigEndian.AppendUint64(b, m.Session)
	b = binary.BigEndian.AppendUint64(b, m.Predictions)
	b = binary.BigEndian.AppendUint64(b, m.Hits)
	return binary.BigEndian.AppendUint64(b, m.Updates)
}

// decodeMeta parses a meta section.
func decodeMeta(p []byte) (Meta, error) {
	if len(p) != 32 {
		return Meta{}, fmt.Errorf("%w: meta section is %d bytes, want 32", ErrCorrupt, len(p))
	}
	return Meta{
		Session:     binary.BigEndian.Uint64(p),
		Predictions: binary.BigEndian.Uint64(p[8:]),
		Hits:        binary.BigEndian.Uint64(p[16:]),
		Updates:     binary.BigEndian.Uint64(p[24:]),
	}, nil
}
