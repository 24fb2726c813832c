package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrency audit of the buffer pool (the parallel scan's shared
// substrate). The pool keeps ONE latch: pin/Unpin/evict all serialize
// on bp.mu, and eviction only ever takes unpinned LRU frames, so a
// pinned reader can never have its page stolen. Frame data is written
// once, under the latch, before the frame becomes visible in bp.resident;
// readers therefore see complete pages without holding the latch.
// These tests pin that down under -race; BenchmarkBufferPoolParallelGet
// measures the latch. Sharding the latch stays off the table until that
// benchmark shows contention dominating (with MemPager a page read is
// one memcpy, so the critical section is already tiny).

// fillPages allocates n pages, each stamped with a pattern derived from
// its id, and returns their ids.
func fillPages(t testing.TB, p Pager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	buf := make([]byte, PageSize)
	for i := range ids {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(uint32(id) * 131)
		}
		if err := p.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestBufferPoolConcurrentReaders: many readers over many pages through
// a pool far smaller than the page set, so hits, misses, and evictions
// all interleave. Every read must observe the page's own pattern, and
// no pins may leak.
func TestBufferPoolConcurrentReaders(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 64)
	pool := NewBufferPool(pager, 8)

	const readers = 8
	const reads = 400
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := ids[(seed*31+i*7)%len(ids)]
				f, err := pool.Get(id)
				if err != nil {
					errc <- err
					return
				}
				want := byte(uint32(id) * 131)
				data := f.Data()
				if data[0] != want || data[PageSize-1] != want {
					f.Unpin()
					errc <- errBadPage(id)
					return
				}
				f.Unpin()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames still pinned after all readers unpinned", n)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != readers*reads {
		t.Fatalf("hits %d + misses %d ≠ %d gets", st.Hits, st.Misses, readers*reads)
	}
	if st.Evictions == 0 {
		t.Fatal("pool never evicted — the test no longer stresses replacement")
	}
}

type errBadPage PageID

func (e errBadPage) Error() string { return "page content mismatch" }

// TestBufferPoolPinUnpinRace hammers one hot page from several
// goroutines while another churns the rest of the pool to keep eviction
// pressure on: the pin counter and LRU membership must stay consistent
// (Unpin panics on any double-unpin the race detector misses).
func TestBufferPoolPinUnpinRace(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 32)
	pool := NewBufferPool(pager, 4)
	hot := ids[0]

	var stop atomic.Bool
	var readers, churn sync.WaitGroup
	errc := make(chan error, 5)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				f, err := pool.Get(hot)
				if err != nil {
					errc <- err
					return
				}
				if f.ID() != hot {
					f.Unpin()
					errc <- errBadPage(hot)
					return
				}
				f.Unpin()
			}
		}()
	}
	// Churner: cycles cold pages through the remaining frames until the
	// hot readers finish.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 1; !stop.Load(); i++ {
			f, err := pool.Get(ids[i%(len(ids)-1)+1])
			if err != nil {
				errc <- err
				return
			}
			f.Unpin()
		}
	}()
	readers.Wait()
	stop.Store(true)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

// TestBufferPoolEvictionSkipsPinned: with every frame pinned, Get of a
// new page reports ErrPoolExhausted instead of stealing a pinned frame
// — concurrently, so the error path holds under the latch too.
func TestBufferPoolEvictionSkipsPinned(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 8)
	pool := NewBufferPool(pager, 4)
	frames := make([]*Frame, 4)
	for i := 0; i < 4; i++ {
		f, err := pool.Get(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := pool.Get(ids[4+r%4]); err == nil {
				t.Errorf("Get succeeded with every frame pinned")
			}
		}(r)
	}
	wg.Wait()
	for _, f := range frames {
		want := byte(uint32(f.ID()) * 131)
		if f.Data()[0] != want {
			t.Fatalf("pinned frame %d corrupted under exhaustion pressure", f.ID())
		}
		f.Unpin()
	}
}

// BenchmarkBufferPoolParallelGet measures the single-latch Get path
// under parallel load — the evidence base for the keep-one-latch
// decision (shard only if this shows the latch dominating).
func BenchmarkBufferPoolParallelGet(b *testing.B) {
	pager := NewMemPager()
	ids := fillPages(b, pager, 64)
	pool := NewBufferPool(pager, 64) // all-resident: isolates latch cost
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := ids[int(ctr.Add(1))%len(ids)]
			f, err := pool.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			f.Unpin()
		}
	})
}

// shadowIO is a transaction's page source in miniature: reads resolve
// to its own images first, then to a private copy of the pool's; writes
// and fresh pages stay in pages until the caller commits them.
type shadowIO struct {
	pool  *BufferPool
	pages map[PageID][]byte
}

func newShadow(pool *BufferPool) *shadowIO {
	return &shadowIO{pool: pool, pages: map[PageID][]byte{}}
}

func (s *shadowIO) Page(id PageID) (Frame, error) {
	if img, ok := s.pages[id]; ok {
		return ShadowFrame(id, img, nil), nil
	}
	fr, err := s.pool.Page(id)
	if err != nil {
		return Frame{}, err
	}
	buf := append([]byte(nil), fr.Data()...)
	fr.Unpin()
	return ShadowFrame(id, buf, s), nil
}

func (s *shadowIO) AllocatePage() (Frame, error) {
	id, err := s.pool.pager.Allocate()
	if err != nil {
		return Frame{}, err
	}
	s.pages[id] = make([]byte, PageSize)
	return ShadowFrame(id, s.pages[id], nil), nil
}

func (s *shadowIO) Install(id PageID, buf []byte) { s.pages[id] = buf }

// commitAppend appends recs to a successor of h through a shadow,
// commits the shadow's images to the pool and returns the successor.
func commitAppend(h *HeapFile, recs ...[]byte) (*HeapFile, error) {
	pool := h.IO().(*BufferPool)
	sh := newShadow(pool)
	next := h.WithIO(sh)
	for _, rec := range recs {
		if _, err := next.Append(rec); err != nil {
			return nil, err
		}
	}
	if err := pool.CommitPages(sh.pages); err != nil {
		return nil, err
	}
	return next.WithIO(pool), nil
}

// record is the i-th record the version tests append: its number,
// padded so that a page holds a few dozen.
func record(i int) []byte {
	rec := make([]byte, 100)
	copy(rec, fmt.Sprintf("%06d", i))
	return rec
}

// readsPrefix checks that h holds exactly records 0 … Count()-1, in
// order, through Scan and a cursor.
func readsPrefix(h *HeapFile) error {
	n := 0
	err := h.Scan(func(_ RID, rec []byte) bool {
		if !bytes.Equal(rec, record(n)) {
			return false
		}
		n++
		return true
	})
	if err != nil || n != h.Count() {
		return fmt.Errorf("Scan of a %d-record version read %d in order (%v)", h.Count(), n, err)
	}
	c, n := h.NewCursor(), 0
	for {
		_, rec, ok, err := c.Next()
		if err != nil || !ok {
			if err != nil || n != h.Count() {
				return fmt.Errorf("cursor over a %d-record version read %d (%v)", h.Count(), n, err)
			}
			return nil
		}
		if !bytes.Equal(rec, record(n)) {
			return fmt.Errorf("cursor record %d reads %q", n, rec[:6])
		}
		n++
	}
}

// TestHeapVersionsReadTheirPrefixUnderCommits: three readers scan heap
// versions over a 4-frame pool while a writer commits appends to the
// same pages, so pins, evictions and image swaps interleave. Every
// version reads exactly its own records off the current images,
// including the first, held across all the commits.
func TestHeapVersionsReadTheirPrefixUnderCommits(t *testing.T) {
	pool := NewBufferPool(NewMemPager(), 4)
	first, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	held, err := commitAppend(first, record(0), record(1), record(2))
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[HeapFile]
	cur.Store(held)
	const commits = 200
	var wg sync.WaitGroup
	var done atomic.Bool
	errc := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		h := held
		for c := 0; c < commits; c++ {
			recs := make([][]byte, 1+c%7)
			for i := range recs {
				recs[i] = record(h.Count() + i)
			}
			if h, err = commitAppend(h, recs...); err != nil {
				errc <- err
				return
			}
			cur.Store(h)
		}
	}()
	for r := 0; r < 3; r++ { // with the writer, at most four pins at once
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20 || !done.Load(); n++ {
				h := cur.Load()
				for sweep := 0; sweep < 2; sweep++ { // the writer moves on meanwhile
					if err := readsPrefix(h); err != nil {
						errc <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := readsPrefix(held); err != nil || held.Count() != 3 {
		t.Fatalf("the version held across every commit: %d records, %v", held.Count(), err)
	}
	if last := cur.Load(); len(last.Pages()) < 10 {
		t.Fatalf("the heap grew to %d pages only; the test no longer spans pages", len(last.Pages()))
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames pinned after every reader finished", n)
	}
	if st := pool.Stats(); st.Evictions == 0 {
		t.Fatal("pool never evicted — the test no longer stresses replacement")
	}
}
