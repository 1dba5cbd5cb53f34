package vm

import "encoding/binary"

const (
	// pageBits selects 4 KiB pages.
	pageBits = 12
	pageSize = 1 << pageBits
	// tableBits is the index width of each directory level: an
	// address's top ten bits select a table, its next ten a page in
	// that table.
	tableBits = 10
)

// table maps the 1024 pages of one 4 MiB range.
type table [1 << tableBits]*[pageSize]byte

// Memory is a sparse byte-addressable little-endian memory: a
// two-level directory of 1024 tables of 1024 pages of 4 KiB. A table
// is allocated on the first store into its 4 MiB range and a page on
// the first store into it; untouched memory reads as zero without
// allocating. The zero value is an empty memory.
type Memory struct {
	dir [1 << tableBits]*table
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return new(Memory) }

// lookup returns the page holding addr, or nil if it was never
// stored to.
func (m *Memory) lookup(addr uint32) *[pageSize]byte {
	if t := m.dir[addr>>(pageBits+tableBits)]; t != nil {
		return t[addr>>pageBits&(1<<tableBits-1)]
	}
	return nil
}

// page returns the page holding addr, allocating it (and its table)
// on first touch.
func (m *Memory) page(addr uint32) *[pageSize]byte {
	t := m.dir[addr>>(pageBits+tableBits)]
	if t == nil {
		t = new(table)
		m.dir[addr>>(pageBits+tableBits)] = t
	}
	p := &t[addr>>pageBits&(1<<tableBits-1)]
	if *p == nil {
		*p = new([pageSize]byte)
	}
	return *p
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) byte {
	if p := m.lookup(addr); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr)[addr&(pageSize-1)] = v
}

// LoadWord reads a little-endian 32-bit word. A word inside one page
// is a single load; one that crosses a page goes byte by byte.
func (m *Memory) LoadWord(addr uint32) uint32 {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord writes a little-endian 32-bit word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadHalf reads a little-endian 16-bit halfword. addr need not be
// aligned; a halfword that crosses a page goes byte by byte.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	if off := addr & (pageSize - 1); off <= pageSize-2 {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint16(p[off:])
		}
		return 0
	}
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a little-endian 16-bit halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	if off := addr & (pageSize - 1); off <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i, c := range b {
		m.StoreByte(addr+uint32(i), c)
	}
}

// LoadString reads the NUL-terminated string at addr, up to max bytes.
func (m *Memory) LoadString(addr uint32, max int) string {
	var b []byte
	for i := 0; i < max; i++ {
		c := m.LoadByte(addr + uint32(i))
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}
