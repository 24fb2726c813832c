package store

// HeapCursor is a pull-style record cursor over a heap file. Unlike
// Scan, which holds one pin per page while pushing records, the cursor
// pins and unpins the page on *every* Next call — the record-at-a-time
// access discipline whose page-touch cost the set-processing experiments
// measure.
type HeapCursor struct {
	heap *HeapFile
	page int // index into the heap's page list
	slot int
}

// NewCursor returns a cursor positioned before the first record.
func (h *HeapFile) NewCursor() *HeapCursor { return &HeapCursor{heap: h} }

// Next returns the next record (copied) and its rid. ok is false at the
// end of the heap.
func (c *HeapCursor) Next() (RID, []byte, bool, error) {
	for ; c.page < len(c.heap.pages); c.page, c.slot = c.page+1, 0 {
		id := c.heap.pages[c.page]
		fr, err := c.heap.io.Page(id)
		if err != nil {
			return RID{}, nil, false, err
		}
		p := SlottedPage(fr.Data())
		for n := c.heap.Slots(id, p); c.slot < n; {
			slot := c.slot
			c.slot++
			if rec, ok := p.Get(slot); ok {
				out := make([]byte, len(rec))
				copy(out, rec)
				fr.Unpin()
				return RID{Page: id, Slot: uint16(slot)}, out, true, nil
			}
		}
		fr.Unpin()
	}
	return RID{}, nil, false, nil
}

// Reset repositions the cursor at the beginning.
func (c *HeapCursor) Reset() { c.page, c.slot = 0, 0 }
