package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// This file pins the things a scan through an evicting pool no longer
// pays for: a page buffer, a frame header or a list element per miss
// (the victim's slot is reused, LRU links and all), a heap object per
// pinned page (the handle is a value), and a pass over the chain to
// learn its page ids (the heap keeps the list).

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

// TestOlderVersionStopsAtItsTail: a heap version pinned on a last page
// that later commits keep filling, then grow past, reads exactly its own
// records off the current images: Scan and a cursor stop at its tail,
// Get of a later record on its last page or on a later page is
// ErrNoRecord, and it counts none of a later page's slots.
func TestOlderVersionStopsAtItsTail(t *testing.T) {
	pool := NewBufferPool(NewMemPager(), 8)
	h, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	if h, err = commitAppend(h, record(0), record(1), record(2)); err != nil {
		t.Fatal(err)
	}
	pinned := h
	var later []RID
	for i := 3; len(h.Pages()) < 3; i++ {
		if h, err = commitAppend(h, record(i)); err != nil {
			t.Fatal(err)
		}
		later = append(later, RID{Page: h.Pages()[len(h.Pages())-1], Slot: uint16(h.tail - 1)})
	}
	if later[0].Page != pinned.Pages()[0] || later[len(later)-1].Page == pinned.Pages()[0] {
		t.Fatalf("later records %v do not both share the pinned last page and pass it", later)
	}
	if err := readsPrefix(pinned); err != nil || pinned.Count() != 3 {
		t.Fatalf("pinned version: %d records, %v", pinned.Count(), err)
	}
	if err := readsPrefix(h); err != nil {
		t.Fatalf("newest version: %v", err)
	}
	for _, rid := range later {
		if _, err := pinned.Get(rid); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("pinned Get(%v) of a later record = %v, want ErrNoRecord", rid, err)
		}
		if _, err := h.Get(rid); err != nil {
			t.Fatalf("newest Get(%v) = %v", rid, err)
		}
	}
	if n := pinned.Slots(h.Pages()[1], nil); n != 0 {
		t.Fatalf("pinned version holds %d slots of a later page", n)
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

// TestMissAtCapacityAllocatesNoPage: a page read — a hit or a miss at
// capacity — allocates nothing. The victim's buffer and frame header
// are reused, the LRU is threaded through the headers, and the handle
// is a value.
func TestMissAtCapacityAllocatesNoPage(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 170)
	pool := NewBufferPool(pager, 64)
	read := func(id PageID) {
		f, err := pool.Page(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := byte(uint32(id) * 131); f.Data()[0] != want || f.Data()[PageSize-1] != want {
			t.Fatalf("page %d: read %#x, want %#x", id, f.Data()[0], want)
		}
		f.Unpin()
	}
	for _, id := range ids[1:] { // fill the pool
		read(id)
	}

	hot := ids[len(ids)-1] // read last, so resident
	before := pool.Stats()
	if n := testing.AllocsPerRun(100, func() { read(hot) }); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
	if st := pool.Stats(); st.Hits-before.Hits != 101 || st.Misses != before.Misses {
		t.Fatalf("stats %+v then %+v, want 101 hits", before, st)
	}

	// Cycling 169 pages through 64 frames in order misses every time.
	next := 0
	miss := func() { read(ids[1+next%(len(ids)-1)]); next++ }
	before = pool.Stats()
	if n := testing.AllocsPerRun(500, miss); n != 0 {
		t.Fatalf("a miss at capacity allocates %v times", n)
	}
	st := pool.Stats()
	if st.Misses-before.Misses != 501 || st.Hits != before.Hits || st.Evictions-before.Evictions != 501 || st.Recycled != st.Evictions {
		t.Fatalf("stats %+v then %+v, want 501 misses, each evicting and recycling", before, st)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

// TestStaleHandleIsDetected: once a slot holds another page, a handle
// on its old page reads nil, and unpinning it panics without touching
// the new occupant's pins.
func TestStaleHandleIsDetected(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 3)
	pool := NewBufferPool(pager, 1)
	old, err := pool.Page(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Get(ids[0]) // a second pin, through the heap adapter
	if err != nil {
		t.Fatal(err)
	}
	stale := old
	old.Unpin()
	got.Unpin()
	if stale.Data() == nil {
		t.Fatal("an unpinned but resident frame lost its image")
	}

	occupant, err := pool.Page(ids[1]) // the only slot moves on
	if err != nil {
		t.Fatal(err)
	}
	if stale.Data() != nil || got.Data() != nil {
		t.Fatal("a handle on an evicted page still hands out the slot's buffer")
	}
	for _, f := range []*Frame{&stale, got} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Unpin of a stale handle must panic")
				}
			}()
			f.Unpin()
		}()
		if n := pool.PinnedCount(); n != 1 {
			t.Fatalf("a stale Unpin changed the occupant's pins: %d pinned", n)
		}
	}
	if want := byte(uint32(ids[1]) * 131); occupant.Data()[0] != want {
		t.Fatal("the occupant's image changed under a stale handle")
	}
	if _, err := pool.Page(ids[2]); err != ErrPoolExhausted {
		t.Fatalf("the occupant lost its pin: Page of another page = %v", err)
	}
	occupant.Unpin()
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

// faultyReads is a MemPager whose reads of one page fail.
type faultyReads struct {
	*MemPager
	bad PageID
}

var errReadFault = errors.New("injected read fault")

func (p *faultyReads) ReadPage(id PageID, buf []byte) error {
	if id == p.bad {
		return errReadFault
	}
	return p.MemPager.ReadPage(id, buf)
}

// TestFailedMissReturnsTheSlot: a miss at capacity that fails in
// ReadPage has already evicted its victim; the slot goes back to the
// pool, nothing stays pinned, and the next miss takes it.
func TestFailedMissReturnsTheSlot(t *testing.T) {
	pager := &faultyReads{MemPager: NewMemPager()}
	ids := fillPages(t, pager, 8)
	pager.bad = ids[4]
	pool := NewBufferPool(pager, 4)
	for _, id := range ids[:4] {
		f, err := pool.Page(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Unpin()
	}
	if _, err := pool.Page(ids[4]); !errors.Is(err, errReadFault) {
		t.Fatalf("Page of the faulty page = %v", err)
	}
	// Again: this miss takes the returned slot, so it evicts nothing,
	// and fails the same way.
	if _, err := pool.Page(ids[4]); !errors.Is(err, errReadFault) {
		t.Fatalf("second Page of the faulty page = %v", err)
	}
	info := pool.Info()
	if info.Pinned != 0 || pool.PinnedCount() != 0 || info.Frames != 3 || info.Evictions != 1 {
		t.Fatalf("after the failed miss: %+v, want 3 resident pages, none pinned, one eviction", info)
	}
	// The three survivors are resident: reading them only hits.
	before := pool.Stats()
	for _, id := range ids[1:4] {
		f, err := pool.Page(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Unpin()
	}
	if st := pool.Stats(); st.Hits-before.Hits != uint64(info.Frames) || st.Misses != before.Misses {
		t.Fatalf("Frames = %d, but re-reading the survivors gave %+v then %+v", info.Frames, before, st)
	}
	f, err := pool.Get(ids[5])
	if err != nil {
		t.Fatalf("the next miss after a failed one: %v", err)
	}
	if want := byte(uint32(ids[5]) * 131); f.Data()[0] != want {
		t.Fatal("the returned slot does not hold the incoming page")
	}
	f.Unpin()
	if info := pool.Info(); info.Frames != 4 || info.Pinned != 0 || info.Evictions != 1 {
		t.Fatalf("after the next miss: %+v, want it in the returned slot without evicting", info)
	}
}

// BenchmarkPoolEvictingScan sweeps 170 pages through 64 frames: every
// pin misses, evicts and reuses the victim's slot and buffer, and
// allocates nothing (whole allocations per miss, as AllocsPerRun
// counts, must be 0).
func BenchmarkPoolEvictingScan(b *testing.B) {
	pager := NewMemPager()
	ids := fillPages(b, pager, 170)
	pool := NewBufferPool(pager, 64)
	sweep := func() {
		for _, id := range ids {
			f, err := pool.Page(id)
			if err != nil {
				b.Fatal(err)
			}
			f.Unpin()
		}
	}
	sweep() // fill the pool; from here on every pin is a miss at capacity
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	misses := pool.Stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	misses = pool.Stats().Misses - misses
	if misses != uint64(b.N*len(ids)) {
		b.Fatalf("%d misses over %d pins: the scan no longer evicts", misses, b.N*len(ids))
	}
	if perMiss := (after.Mallocs - before.Mallocs) / misses; perMiss > 0 {
		b.Fatalf("%d allocations per miss at capacity, want 0", perMiss)
	}
}
