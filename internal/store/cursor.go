package store

// HeapCursor is a pull-style record cursor over a heap file. Unlike
// Scan, which holds one pin per page while pushing records, the cursor
// pins and unpins the page on *every* Next call — the record-at-a-time
// access discipline whose page-touch cost the set-processing experiments
// measure.
type HeapCursor struct {
	heap *HeapFile
	page PageID
	slot int
	done bool
}

// NewCursor returns a cursor positioned before the first record.
func (h *HeapFile) NewCursor() *HeapCursor {
	return &HeapCursor{heap: h, page: h.first}
}

// Next returns the next live record (copied) and its rid. ok is false at
// the end of the heap.
func (c *HeapCursor) Next() (RID, []byte, bool, error) {
	for !c.done {
		fr, err := c.heap.io.Page(c.page)
		if err != nil {
			return RID{}, nil, false, err
		}
		p := SlottedPage(fr.Data())
		n := p.NumSlots()
		for c.slot < n {
			slot := c.slot
			c.slot++
			if rec, ok := p.Get(slot); ok {
				out := make([]byte, len(rec))
				copy(out, rec)
				fr.Unpin()
				return RID{Page: c.page, Slot: uint16(slot)}, out, true, nil
			}
		}
		next := p.Next()
		fr.Unpin()
		if next == InvalidPage {
			c.done = true
			break
		}
		c.page = next
		c.slot = 0
	}
	return RID{}, nil, false, nil
}

// Reset repositions the cursor at the beginning.
func (c *HeapCursor) Reset() {
	c.page = c.heap.first
	c.slot = 0
	c.done = false
}

// PageCursor is a pull-style page cursor over a heap file: each Next
// call pins one page, hands it to fn, and unpins before returning — the
// set-at-a-time access discipline in pull form, so a batch-iterator
// engine can pace the scan instead of being pushed through a callback.
// The page passed to fn aliases the pinned frame and must not be
// retained past fn's return; decode or copy its records inside fn.
type PageCursor struct {
	heap *HeapFile
	page PageID
}

// NewPageCursor returns a page cursor positioned before the first page.
func (h *HeapFile) NewPageCursor() *PageCursor {
	return &PageCursor{heap: h, page: h.first}
}

// Next visits the next page. It returns false when the chain is
// exhausted. An error from fn stops the cursor and is returned.
func (c *PageCursor) Next(fn func(id PageID, p SlottedPage) error) (bool, error) {
	if c.page == InvalidPage {
		return false, nil
	}
	fr, err := c.heap.io.Page(c.page)
	if err != nil {
		return false, err
	}
	p := SlottedPage(fr.Data())
	id := c.page
	c.page = p.Next()
	err = fn(id, p)
	fr.Unpin()
	return true, err
}

// Reset repositions the cursor at the first page.
func (c *PageCursor) Reset() { c.page = c.heap.first }
