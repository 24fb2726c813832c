package store

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// This file pins the two things a scan through an evicting pool no
// longer pays for: a page buffer per miss (the victim's is reused) and
// a pass over the chain to learn its page ids (the heap keeps the list).

// walkChain follows next pointers from the head, fetching every page:
// what HeapFile.Pages used to do and what its list must equal.
func walkChain(t *testing.T, h *HeapFile) []PageID {
	t.Helper()
	var out []PageID
	for id := h.FirstPage(); id != InvalidPage; {
		out = append(out, id)
		fr, err := h.IO().Page(id)
		if err != nil {
			t.Fatal(err)
		}
		id = SlottedPage(fr.Data()).Next()
		fr.Unpin()
	}
	return out
}

func samePages(t *testing.T, what string, got, want []PageID) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: page list %v, chain %v", what, got, want)
	}
}

func TestHeapPageListFollowsTheChain(t *testing.T) {
	h, bp := newTestHeap(t, 8)
	rec := bytes.Repeat([]byte("r"), 700)
	grow := func(h *HeapFile, n int) {
		for i := 0; i < n; i++ {
			if _, err := h.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	samePages(t, "fresh heap", h.Pages(), walkChain(t, h))
	for round := 0; round < 4; round++ { // appends that grow the chain, list read in between
		grow(h, 7)
		samePages(t, fmt.Sprintf("round %d", round), h.Pages(), walkChain(t, h))
	}

	// A clone taken now must not see pages either side appends later,
	// and growing the clone must not show through the original.
	snapshot := h.WithIO(bp)
	atSnapshot := walkChain(t, h)
	samePages(t, "clone", snapshot.Pages(), atSnapshot)
	grow(h, 12)
	samePages(t, "original after growth", h.Pages(), walkChain(t, h))
	samePages(t, "clone after the original grew", snapshot.Pages(), atSnapshot)
	if len(h.Pages()) <= len(atSnapshot) {
		t.Fatal("the chain did not grow; the test proves nothing")
	}

	// The reverse: a clone that grows copies the list first.
	before := h.Pages()
	writer := h.WithIO(bp)
	grow(writer, 12)
	samePages(t, "growing clone", writer.Pages(), walkChain(t, writer))
	samePages(t, "original after its clone grew", h.Pages(), before)

	// Reopening rebuilds the same list from the pages.
	h2, err := OpenHeap(bp, writer.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	samePages(t, "reopened", h2.Pages(), walkChain(t, writer))

	// The list itself costs no page fetch.
	st := bp.Stats()
	_ = h2.Pages()
	if after := bp.Stats(); after != st {
		t.Fatalf("Pages touched the pool: %+v then %+v", st, after)
	}
}

// writeLog is a MemPager that records the order of page writes.
type writeLog struct {
	*MemPager
	writes []PageID
}

func (w *writeLog) WritePage(id PageID, buf []byte) error {
	w.writes = append(w.writes, id)
	return w.MemPager.WritePage(id, buf)
}

func TestEvictionRecyclesTheVictimsBuffer(t *testing.T) {
	pager := &writeLog{MemPager: NewMemPager()}
	ids := fillPages(t, pager, 6)
	pool := NewBufferPool(pager, 2)

	// Fill the pool: a stays pinned, b is dirtied and unpinned.
	a, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	aData, bData := a.Data(), b.Data()
	bData[0] = 0x5A
	b.MarkDirty()
	b.Unpin()
	pager.writes = nil

	// The miss must take b's buffer (a is pinned), after writing b back.
	c, err := pool.Get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if &c.Data()[0] != &bData[0] {
		t.Fatal("the incoming page did not reuse the victim's buffer")
	}
	if &c.Data()[0] == &aData[0] || a.Data()[0] != byte(uint32(ids[0])*131) {
		t.Fatal("a pinned frame's buffer was recycled")
	}
	if want := byte(uint32(ids[2]) * 131); c.Data()[0] != want || c.Data()[PageSize-1] != want {
		t.Fatal("the recycled buffer does not hold the incoming page")
	}
	if len(pager.writes) != 1 || pager.writes[0] != ids[1] {
		t.Fatalf("writes before reuse = %v, want the dirty victim %d", pager.writes, ids[1])
	}
	onDisk := make([]byte, PageSize)
	if err := pager.ReadPage(ids[1], onDisk); err != nil || onDisk[0] != 0x5A {
		t.Fatalf("dirty victim not written back before its buffer was reused: %#x, %v", onDisk[0], err)
	}
	if st := pool.Stats(); st.Recycled != 1 || st.Evictions != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want one eviction, one write, one recycled buffer", st)
	}
	if b.Data() != nil {
		t.Fatal("an evicted frame still hands out its old buffer")
	}

	// With every frame pinned there is nothing to recycle.
	if _, err := pool.Get(ids[3]); err != ErrPoolExhausted {
		t.Fatalf("Get with every frame pinned: %v", err)
	}
	c.Unpin()

	// Allocate recycles too, and the fresh page still reads as zeros.
	f, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if &f.Data()[0] != &bData[0] || !bytes.Equal(f.Data(), make([]byte, PageSize)) {
		t.Fatal("Allocate at capacity must reuse the victim's buffer, zeroed")
	}
	f.Unpin()
	a.Unpin()
	if info := pool.Info(); info.Pinned != 0 || info.Frames != 2 || info.Capacity != 2 || info.Recycled != 2 {
		t.Fatalf("info = %+v", info)
	}
}

// TestMissAtCapacityAllocatesNoPage: a steady-state evicting scan costs
// a frame header and an LRU element per miss, not a page.
func TestMissAtCapacityAllocatesNoPage(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 170)
	pool := NewBufferPool(pager, 64)
	sweep := func() {
		for _, id := range ids {
			f, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Unpin()
		}
	}
	sweep() // fill the pool; from here on every Get is a miss at capacity
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const sweeps = 20
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	perMiss := (after.TotalAlloc - before.TotalAlloc) / (sweeps * uint64(len(ids)))
	if perMiss >= PageSize/8 {
		t.Fatalf("%d bytes allocated per miss at capacity; the victim's %d-byte buffer is not being reused", perMiss, PageSize)
	}
	if st := pool.Stats(); st.Recycled != st.Evictions || st.Hits != 0 {
		t.Fatalf("stats = %+v, want every eviction recycled and no hits", st)
	}
}

// BenchmarkPoolEvictingScan sweeps 170 pages through 64 frames: every
// Get misses, evicts and reuses the victim's buffer.
func BenchmarkPoolEvictingScan(b *testing.B) {
	pager := NewMemPager()
	ids := fillPages(b, pager, 170)
	pool := NewBufferPool(pager, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			f, err := pool.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			f.Unpin()
		}
	}
}
