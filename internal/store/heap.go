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

// ErrNoRecord reports a Get/Delete of a missing record.
var ErrNoRecord = errors.New("store: no such record")

// HeapFile is an append-oriented record collection: a chain of slotted
// pages reached through a page source. It is the physical home of
// stored extended sets. The source is usually a buffer pool, but the
// same heap code also runs against a wal transaction shadow
// (uncommitted writes) or an epoch-pinned snapshot view — see WithIO.
//
// The heap keeps the page ids of its chain in order (pages): filled by
// the walk OpenHeap makes anyway, extended in place when Append grows
// the chain, and shared by WithIO clones capped at their own length.
// That is sound because heaps are append-only and a published snapshot
// table is immutable, so a scan that needs the whole chain up front (a
// morsel source) reads the list instead of fetching every page just to
// follow its next pointer.
type HeapFile struct {
	io    PageIO
	first PageID
	last  PageID
	count int
	pages []PageID
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
	return &HeapFile{io: io, first: id, last: id, pages: []PageID{id}}, nil
}

// OpenHeap reattaches to an existing chain headed at first. The record
// count is recomputed by walking the chain.
func OpenHeap(io PageIO, first PageID) (*HeapFile, error) {
	h := &HeapFile{io: io, first: first, last: first}
	id := first
	for id != InvalidPage {
		fr, err := io.Page(id)
		if err != nil {
			return nil, err
		}
		p := SlottedPage(fr.Data())
		p.Each(func(int, []byte) bool { h.count++; return true })
		next := p.Next()
		h.last = id
		h.pages = append(h.pages, id)
		fr.Unpin()
		id = next
	}
	return h, nil
}

// FirstPage returns the head page id (persist it to reopen the heap).
func (h *HeapFile) FirstPage() PageID { return h.first }

// Count returns the number of live records.
func (h *HeapFile) Count() int { return h.count }

// Pages returns the page ids of the chain in order, without touching a
// page. The slice is shared and must not be modified; it is capped at
// its length, so a later Append never shows through it.
func (h *HeapFile) Pages() []PageID { return h.pages[:len(h.pages):len(h.pages)] }

// Append stores rec at the tail, growing the chain as needed.
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	fr, err := h.io.Page(h.last)
	if err != nil {
		return RID{}, err
	}
	p := SlottedPage(fr.Data())
	if slot, ok := p.Insert(rec); ok {
		fr.MarkDirty()
		fr.Unpin()
		h.count++
		return RID{Page: h.last, Slot: uint16(slot)}, nil
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
	h.last = nf.ID()
	h.pages = append(h.pages, h.last)
	nf.Unpin()
	h.count++
	return RID{Page: h.last, Slot: uint16(slot)}, nil
}

// Get copies the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	fr, err := h.io.Page(rid.Page)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	rec, ok := SlottedPage(fr.Data()).Get(int(rid.Slot))
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Delete tombstones the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	fr, err := h.io.Page(rid.Page)
	if err != nil {
		return err
	}
	defer fr.Unpin()
	if !SlottedPage(fr.Data()).Delete(int(rid.Slot)) {
		return fmt.Errorf("%w: %v", ErrNoRecord, rid)
	}
	fr.MarkDirty()
	h.count--
	return nil
}

// Scan visits every live record in chain order. The record bytes passed
// to fn alias the pinned page and must not be retained; fn returning
// false stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	id := h.first
	for id != InvalidPage {
		fr, err := h.io.Page(id)
		if err != nil {
			return err
		}
		p := SlottedPage(fr.Data())
		stop := false
		p.Each(func(slot int, rec []byte) bool {
			if !fn(RID{Page: id, Slot: uint16(slot)}, rec) {
				stop = true
				return false
			}
			return true
		})
		next := p.Next()
		fr.Unpin()
		if stop {
			return nil
		}
		id = next
	}
	return nil
}

// WithIO returns a shallow clone of the heap bound to a different page
// source: a wal transaction shadow for uncommitted writes, or a
// snapshot View for epoch-pinned reads. The clone shares page ids with
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
