package store

import (
	"errors"
	"fmt"
)

// RID identifies a record inside a heap file.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// ErrRecordTooLarge reports a record that cannot fit in an empty page.
var ErrRecordTooLarge = errors.New("store: record larger than page payload")

// ErrNoRecord reports a Get of a missing record.
var ErrNoRecord = errors.New("store: no such record")

// ErrStaleVersion reports an Append to a heap version that is not its
// heap's newest.
var ErrStaleVersion = errors.New("store: append to a superseded heap version")

// HeapFile is an append-oriented record collection: a chain of slotted
// pages reached through a page source. It is the physical home of
// stored extended sets. The source is usually a buffer pool, but the
// same heap code also runs against a wal transaction shadow
// (uncommitted writes) — see WithIO.
//
// A HeapFile value is one version of its heap: the page ids of its
// chain in order (pages) and the slot count of its last page (tail).
// Records are only ever appended, at the last page and beyond, so a
// version is a prefix of every later one and reads as the restricted
// set {r ∈ heap | position(r) < its end}: every walk (Scan, a cursor, a
// page-at-a-time read, Get) reads the current page images and stops at
// the tail on the last page, and needs no image of its own. The list is
// filled by the walk OpenHeap makes, extended in place when Append grows
// the chain, and shared by WithIO clones capped at their own length;
// OpenHeap is the one reader of the on-page next pointer.
type HeapFile struct {
	io    PageIO
	count int
	pages []PageID // never empty: a heap has at least its first page
	tail  int      // slots of the last page this version holds
}

// CreateHeap starts a heap file with one empty page.
func CreateHeap(io PageIO) (*HeapFile, error) {
	f, err := io.AllocatePage()
	if err != nil {
		return nil, err
	}
	InitPage(f.Data())
	f.MarkDirty()
	id := f.ID()
	f.Unpin()
	return &HeapFile{io: io, pages: []PageID{id}}, nil
}

// OpenHeap reattaches to an existing chain headed at first, walking it
// once to list its pages and count its records.
func OpenHeap(io PageIO, first PageID) (*HeapFile, error) {
	if first == InvalidPage {
		return nil, errors.New("store: heap without a first page")
	}
	h := &HeapFile{io: io}
	id := first
	for id != InvalidPage {
		fr, err := io.Page(id)
		if err != nil {
			return nil, err
		}
		p := SlottedPage(fr.Data())
		p.Each(func(int, []byte) bool { h.count++; return true })
		next := p.Next()
		h.pages = append(h.pages, id)
		h.tail = p.NumSlots()
		fr.Unpin()
		id = next
	}
	return h, nil
}

// FirstPage returns the head page id (persist it to reopen the heap).
func (h *HeapFile) FirstPage() PageID { return h.pages[0] }

// Count returns the number of records.
func (h *HeapFile) Count() int { return h.count }

// Pages returns the page ids of the chain in order, without touching a
// page. The slice is shared and must not be modified; it is capped at
// its length, so a later Append never shows through it.
func (h *HeapFile) Pages() []PageID { return h.pages[:len(h.pages):len(h.pages)] }

// Append stores rec at the tail, growing the chain as needed. Only the
// heap's newest version may grow: appending to one whose last page
// already holds slots past its tail is an error, as the successor would
// count a sibling's records it does not hold.
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	last := h.pages[len(h.pages)-1]
	fr, err := h.io.Page(last)
	if err != nil {
		return RID{}, err
	}
	p := SlottedPage(fr.Data())
	if n := p.NumSlots(); n != h.tail {
		fr.Unpin()
		return RID{}, fmt.Errorf("%w: page %d holds %d slots, the version %d", ErrStaleVersion, last, n, h.tail)
	}
	if slot, ok := p.Insert(rec); ok {
		fr.MarkDirty()
		fr.Unpin()
		h.count++
		h.tail = slot + 1
		return RID{Page: last, Slot: uint16(slot)}, nil
	}
	// Grow the chain.
	nf, err := h.io.AllocatePage()
	if err != nil {
		fr.Unpin()
		return RID{}, err
	}
	InitPage(nf.Data())
	np := SlottedPage(nf.Data())
	slot, ok := np.Insert(rec)
	if !ok {
		nf.Unpin()
		fr.Unpin()
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	nf.MarkDirty()
	p.SetNext(nf.ID())
	fr.MarkDirty()
	fr.Unpin()
	h.pages = append(h.pages, nf.ID())
	nf.Unpin()
	h.count++
	h.tail = slot + 1
	return RID{Page: nf.ID(), Slot: uint16(slot)}, nil
}

// Slots reports how many leading slots of page id, whose image is p,
// this version holds: the tail on its last page, every slot on an
// earlier one, and none on a page past the last (a chain's ids ascend,
// as the pager never reuses one).
func (h *HeapFile) Slots(id PageID, p SlottedPage) int {
	switch last := h.pages[len(h.pages)-1]; {
	case id == last:
		return h.tail
	case id > last:
		return 0
	}
	return p.NumSlots()
}

// Record returns the record at rid in p, rid's page image, or
// ErrNoRecord when this version does not hold it. The bytes alias p.
func (h *HeapFile) Record(rid RID, p SlottedPage) ([]byte, error) {
	if int(rid.Slot) < h.Slots(rid.Page, p) {
		if rec, ok := p.Get(int(rid.Slot)); ok {
			return rec, nil
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
}

// Get copies the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	fr, err := h.io.Page(rid.Page)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	rec, err := h.Record(rid, SlottedPage(fr.Data()))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Scan visits every record in page-list order. The record bytes passed
// to fn alias the pinned page and must not be retained; fn returning
// false stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	for _, id := range h.pages {
		fr, err := h.io.Page(id)
		if err != nil {
			return err
		}
		p := SlottedPage(fr.Data())
		stop := false
		for slot, n := 0, h.Slots(id, p); slot < n && !stop; slot++ {
			if rec, ok := p.Get(slot); ok {
				stop = !fn(RID{Page: id, Slot: uint16(slot)}, rec)
			}
		}
		fr.Unpin()
		if stop {
			return nil
		}
	}
	return nil
}

// WithIO returns a shallow clone of the heap bound to a different page
// source: a wal transaction shadow for uncommitted writes, or the
// buffer pool again when the transaction publishes. The clone shares page ids with
// the original but none of its mutable bookkeeping, so appending
// through a transactional clone leaves the committed heap untouched
// until the transaction publishes it: the clone's page list is capped
// at its length, so its first chain growth copies the list instead of
// writing into the original's.
func (h *HeapFile) WithIO(io PageIO) *HeapFile {
	c := *h
	c.io = io
	c.pages = h.Pages()
	return &c
}

// IO returns the heap's page source.
func (h *HeapFile) IO() PageIO { return h.io }
