package store

import "encoding/binary"

// SlottedPage lays out variable-length records inside one page:
//
//	header (10 bytes): numSlots u16 | freeStart u16 | freeEnd u16 | next u32
//	slot directory:    numSlots × (offset u16 | length u16), growing up
//	record cells:      growing down from the page end
//
// Records are only ever added, so a record id stays valid for as long as
// the page lives. A slot whose offset is 0xFFFF still reads as no record:
// a page read from disk may hold one. The next field chains heap-file
// pages; OpenHeap follows it once, and every later walk of the heap
// reads the heap's page list instead.
type SlottedPage []byte

const (
	pageHeaderSize = 10
	slotSize       = 4
	deletedOffset  = 0xFFFF
)

// InitPage formats buf as an empty slotted page.
func InitPage(buf []byte) {
	for i := range buf[:pageHeaderSize] {
		buf[i] = 0
	}
	p := SlottedPage(buf)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(uint16(len(buf)))
	p.SetNext(InvalidPage)
}

func (p SlottedPage) numSlots() uint16      { return binary.LittleEndian.Uint16(p[0:]) }
func (p SlottedPage) setNumSlots(n uint16)  { binary.LittleEndian.PutUint16(p[0:], n) }
func (p SlottedPage) freeStart() uint16     { return binary.LittleEndian.Uint16(p[2:]) }
func (p SlottedPage) setFreeStart(v uint16) { binary.LittleEndian.PutUint16(p[2:], v) }
func (p SlottedPage) freeEnd() uint16       { return binary.LittleEndian.Uint16(p[4:]) }
func (p SlottedPage) setFreeEnd(v uint16)   { binary.LittleEndian.PutUint16(p[4:], v) }

// Next returns the chained page id.
func (p SlottedPage) Next() PageID { return PageID(binary.LittleEndian.Uint32(p[6:])) }

// SetNext sets the chained page id.
func (p SlottedPage) SetNext(id PageID) { binary.LittleEndian.PutUint32(p[6:], uint32(id)) }

// NumSlots reports the slot-directory size (including deleted slots).
func (p SlottedPage) NumSlots() int { return int(p.numSlots()) }

// FreeSpace reports the bytes available for one more record (including
// its slot entry).
func (p SlottedPage) FreeSpace() int {
	free := int(p.freeEnd()) - int(p.freeStart()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

func (p SlottedPage) slot(i int) (off, ln uint16) {
	base := pageHeaderSize + i*slotSize
	return binary.LittleEndian.Uint16(p[base:]), binary.LittleEndian.Uint16(p[base+2:])
}

func (p SlottedPage) setSlot(i int, off, ln uint16) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p[base:], off)
	binary.LittleEndian.PutUint16(p[base+2:], ln)
}

// Insert stores rec and returns its slot index, or ok=false when the
// page lacks space. Records longer than the page payload are rejected.
func (p SlottedPage) Insert(rec []byte) (int, bool) {
	if len(rec) > p.FreeSpace() {
		return 0, false
	}
	slot := int(p.numSlots())
	end := p.freeEnd() - uint16(len(rec))
	copy(p[end:], rec)
	p.setSlot(slot, end, uint16(len(rec)))
	p.setNumSlots(uint16(slot + 1))
	p.setFreeStart(uint16(pageHeaderSize + (slot+1)*slotSize))
	p.setFreeEnd(end)
	return slot, true
}

// Get returns the record in a slot. The returned bytes alias the page;
// callers must copy before unpinning. ok is false for deleted or
// out-of-range slots.
func (p SlottedPage) Get(slot int) ([]byte, bool) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, false
	}
	off, ln := p.slot(slot)
	if off == deletedOffset {
		return nil, false
	}
	return p[off : off+ln], true
}

// Each calls fn with every live record in slot order, stopping early on
// false.
func (p SlottedPage) Each(fn func(slot int, rec []byte) bool) {
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		if rec, ok := p.Get(i); ok {
			if !fn(i, rec) {
				return
			}
		}
	}
}
