package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemPagerBasics(t *testing.T) {
	p := NewMemPager()
	id, err := p.Allocate()
	if err != nil || id != 0 {
		t.Fatalf("Allocate = %d, %v", id, err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := p.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("read back wrong")
	}
	if p.NumPages() != 1 {
		t.Fatal("NumPages wrong")
	}
	if err := p.ReadPage(9, got); err == nil {
		t.Fatal("out-of-bounds read must fail")
	}
	if err := p.WritePage(9, got); err == nil {
		t.Fatal("out-of-bounds write must fail")
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	buf := make([]byte, PageSize)
	copy(buf, "persisted")
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", p2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := p2.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("persisted")) {
		t.Fatal("persistence failed")
	}
}

func TestSlottedPageInsertGetDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	InitPage(buf)
	p := SlottedPage(buf)

	s1, ok := p.Insert([]byte("alpha"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.Insert([]byte("beta"))
	if !ok || s2 == s1 {
		t.Fatal("second insert failed")
	}
	if rec, ok := p.Get(s1); !ok || string(rec) != "alpha" {
		t.Fatalf("Get(s1) = %q, %v", rec, ok)
	}
	if rec, ok := p.Get(s2); !ok || string(rec) != "beta" {
		t.Fatalf("Get(s2) = %q, %v", rec, ok)
	}
	if !p.Delete(s1) {
		t.Fatal("delete failed")
	}
	if _, ok := p.Get(s1); ok {
		t.Fatal("deleted slot must not read")
	}
	if p.Delete(s1) {
		t.Fatal("double delete must fail")
	}
	// s2 unaffected, ids stable.
	if rec, _ := p.Get(s2); string(rec) != "beta" {
		t.Fatal("neighbor slot corrupted")
	}
	if _, ok := p.Get(99); ok {
		t.Fatal("out-of-range slot")
	}
}

func TestSlottedPageFillsUp(t *testing.T) {
	buf := make([]byte, PageSize)
	InitPage(buf)
	p := SlottedPage(buf)
	rec := bytes.Repeat([]byte("x"), 100)
	n := 0
	for {
		if _, ok := p.Insert(rec); !ok {
			break
		}
		n++
	}
	// 100-byte records + 4-byte slots into 4086 payload bytes: 39 fit.
	if n != (PageSize-pageHeaderSize)/(100+slotSize) {
		t.Fatalf("packed %d records", n)
	}
	if p.FreeSpace() >= 104 {
		t.Fatal("free space accounting wrong")
	}
}

func TestSlottedPageEach(t *testing.T) {
	buf := make([]byte, PageSize)
	InitPage(buf)
	p := SlottedPage(buf)
	for i := 0; i < 5; i++ {
		p.Insert([]byte{byte(i)})
	}
	p.Delete(2)
	var seen []byte
	p.Each(func(_ int, rec []byte) bool {
		seen = append(seen, rec[0])
		return true
	})
	if !bytes.Equal(seen, []byte{0, 1, 3, 4}) {
		t.Fatalf("Each saw %v", seen)
	}
	n := 0
	p.Each(func(int, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatal("Each must stop early")
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	pager := NewMemPager()
	for i := 0; i < 4; i++ {
		pager.Allocate()
	}
	bp := NewBufferPool(pager, 2)

	f0, err := bp.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f0.Data()[0] = 7
	f0.MarkDirty()
	f0.Unpin()

	f0b, _ := bp.Get(0) // hit
	if f0b.Data()[0] != 7 {
		t.Fatal("cached data lost")
	}
	f0b.Unpin()

	bp.Get(1) // miss, fills pool (leaked pin on purpose below)
	f1, _ := bp.Get(1)
	f1.Unpin()
	f1.Unpin() // release both pins

	// Touch two more pages to force eviction of page 0 (dirty).
	f2, _ := bp.Get(2)
	f2.Unpin()
	f3, _ := bp.Get(3)
	f3.Unpin()

	st := bp.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions < 2 || st.Writes < 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Dirty page 0 must have reached the pager.
	buf := make([]byte, PageSize)
	pager.ReadPage(0, buf)
	if buf[0] != 7 {
		t.Fatal("dirty eviction did not write back")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	pager := NewMemPager()
	pager.Allocate()
	pager.Allocate()
	bp := NewBufferPool(pager, 1)
	f, err := bp.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Get(1); err == nil {
		t.Fatal("pinned-full pool must refuse")
	}
	f.Unpin()
	if _, err := bp.Get(1); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	pager := NewMemPager()
	bp := NewBufferPool(pager, 4)
	f, _ := bp.Allocate()
	InitPage(f.Data())
	SlottedPage(f.Data()).Insert([]byte("keep"))
	f.MarkDirty()
	f.Unpin()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	pager.ReadPage(f.ID(), buf)
	if rec, ok := SlottedPage(buf).Get(0); !ok || string(rec) != "keep" {
		t.Fatal("flush lost data")
	}
}

func TestUnpinPanicsWhenUnpinned(t *testing.T) {
	pager := NewMemPager()
	pager.Allocate()
	bp := NewBufferPool(pager, 1)
	f, _ := bp.Get(0)
	f.Unpin()
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin must panic")
		}
	}()
	f.Unpin()
}

func newTestHeap(t *testing.T, frames int) (*HeapFile, *BufferPool) {
	t.Helper()
	bp := NewBufferPool(NewMemPager(), frames)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	return h, bp
}

func TestHeapAppendGetDelete(t *testing.T) {
	h, _ := newTestHeap(t, 8)
	rid1, err := h.Append([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	rid2, _ := h.Append([]byte("two"))
	if got, _ := h.Get(rid1); string(got) != "one" {
		t.Fatal("Get rid1 wrong")
	}
	if got, _ := h.Get(rid2); string(got) != "two" {
		t.Fatal("Get rid2 wrong")
	}
	if h.Count() != 2 {
		t.Fatal("Count wrong")
	}
	if err := h.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid1); err == nil {
		t.Fatal("deleted record must not read")
	}
	if err := h.Delete(rid1); err == nil {
		t.Fatal("double delete must fail")
	}
	if h.Count() != 1 {
		t.Fatal("Count after delete wrong")
	}
}

func TestHeapGrowsAcrossPages(t *testing.T) {
	h, _ := newTestHeap(t, 8)
	rec := bytes.Repeat([]byte("r"), 500)
	const n = 50 // 50 × 504 bytes ≫ one page
	var rids []RID
	for i := 0; i < n; i++ {
		r := append([]byte{byte(i)}, rec...)
		rid, err := h.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := h.Pages()
	if len(pages) < 5 {
		t.Fatalf("chain has %d pages, expected several", len(pages))
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("record %d corrupted: %v", i, err)
		}
	}
}

func TestHeapScanOrderAndEarlyStop(t *testing.T) {
	h, _ := newTestHeap(t, 8)
	for i := 0; i < 10; i++ {
		h.Append([]byte{byte(i)})
	}
	var seen []byte
	if err := h.Scan(func(_ RID, rec []byte) bool {
		seen = append(seen, rec[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i] != byte(i) {
			t.Fatalf("scan order wrong: %v", seen)
		}
	}
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatal("early stop failed")
	}
}

// pageCursorAll drains a page cursor, returning the pages visited and
// the live records on them.
func pageCursorAll(t *testing.T, h *HeapFile) (pages, records int) {
	t.Helper()
	pc := h.NewPageCursor()
	for {
		ok, err := pc.Next(func(_ PageID, p SlottedPage) error {
			pages++
			p.Each(func(int, []byte) bool { records++; return true })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return pages, records
		}
	}
}

func TestHeapPageCursor(t *testing.T) {
	h, _ := newTestHeap(t, 8)
	rec := bytes.Repeat([]byte("p"), 900)
	for i := 0; i < 20; i++ {
		h.Append(rec)
	}
	calls, total := pageCursorAll(t, h)
	if total != 20 {
		t.Fatalf("page scan saw %d records", total)
	}
	if calls >= 20 {
		t.Fatal("page scan must batch records per page")
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h, _ := newTestHeap(t, 4)
	if _, err := h.Append(make([]byte, PageSize)); err == nil {
		t.Fatal("oversized record must fail")
	}
}

func TestOpenHeapRecount(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 8)
	h, _ := CreateHeap(bp)
	var rid RID
	for i := 0; i < 25; i++ {
		r, _ := h.Append(bytes.Repeat([]byte{byte(i)}, 300))
		if i == 3 {
			rid = r
		}
	}
	h.Delete(rid)

	h2, err := OpenHeap(bp, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 24 {
		t.Fatalf("reopened count = %d, want 24", h2.Count())
	}
	// Appends continue on the tail page.
	if _, err := h2.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 25 {
		t.Fatal("append after reopen failed")
	}
}

func TestNoPinLeaksAfterOperations(t *testing.T) {
	h, bp := newTestHeap(t, 8)
	for i := 0; i < 40; i++ {
		h.Append(bytes.Repeat([]byte{1}, 200))
	}
	h.Scan(func(RID, []byte) bool { return true })
	pageCursorAll(t, h)
	if n := bp.PinnedCount(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

func TestBufferPoolStatsString(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 2)
	if s := bp.String(); s == "" {
		t.Fatal("String empty")
	}
	bp.ResetStats()
	if st := bp.Stats(); st != (Stats{}) {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestHeapStress(t *testing.T) {
	h, bp := newTestHeap(t, 3) // tiny pool forces constant eviction
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := h.Append([]byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte("z"), i%50))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.HasPrefix(got, []byte(fmt.Sprintf("record-%03d", i))) {
			t.Fatalf("record %d corrupted: %q", i, got)
		}
	}
	if bp.PinnedCount() != 0 {
		t.Fatal("pin leak under stress")
	}
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	pager := NewMemPager()
	const pages = 32
	for i := 0; i < pages; i++ {
		pager.Allocate()
	}
	bp := NewBufferPool(pager, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := PageID((seed*31 + i*7) % pages)
				f, err := bp.Get(id)
				if err != nil {
					errs <- err
					return
				}
				_ = f.Data()[0]
				f.Unpin()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bp.PinnedCount() != 0 {
		t.Fatal("pins leaked under concurrency")
	}
}
