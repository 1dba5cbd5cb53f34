package vm

// pageBits selects 4 KiB pages for the sparse memory map.
const pageBits = 12

const pageSize = 1 << pageBits

// Memory is a sparse byte-addressable little-endian memory, allocated
// in pages on first touch. The zero value is an empty memory.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// cur caches the page numbered curPN, the last one an access
	// found or allocated: consecutive accesses mostly fall in one
	// page, and they then skip the map lookup.
	cur   *[pageSize]byte
	curPN uint32
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

// lookup returns the page holding addr, or nil if it was never
// touched.
func (m *Memory) lookup(addr uint32) *[pageSize]byte {
	pn := addr >> pageBits
	if m.cur != nil && pn == m.curPN {
		return m.cur
	}
	p := m.pages[pn]
	if p != nil {
		m.cur, m.curPN = p, pn
	}
	return p
}

// page returns the page holding addr, allocating it on first touch.
func (m *Memory) page(addr uint32) *[pageSize]byte {
	if p := m.lookup(addr); p != nil {
		return p
	}
	p := new([pageSize]byte)
	m.pages[addr>>pageBits] = p
	m.cur, m.curPN = p, addr>>pageBits
	return p
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

// LoadWord reads a little-endian 32-bit word. addr should be 4-byte
// aligned; the fast path assumes the word does not cross a page.
func (m *Memory) LoadWord(addr uint32) uint32 {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		if p := m.lookup(addr); p != nil {
			return uint32(p[off]) | uint32(p[off+1])<<8 |
				uint32(p[off+2])<<16 | uint32(p[off+3])<<24
		}
		return 0
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// StoreWord writes a little-endian 32-bit word.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.page(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadHalf reads a little-endian 16-bit halfword. addr need not be
// aligned; the fast path assumes the halfword does not cross a page.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	off := addr & (pageSize - 1)
	if off <= pageSize-2 {
		if p := m.lookup(addr); p != nil {
			return uint16(p[off]) | uint16(p[off+1])<<8
		}
		return 0
	}
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf writes a little-endian 16-bit halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	off := addr & (pageSize - 1)
	if off <= pageSize-2 {
		p := m.page(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
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
