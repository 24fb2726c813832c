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

// TestViewsReadTheirEpochUnderCommits: readers hold Views over a
// 4-frame pool and sweep its pages while a writer commits new images of
// the same pages, so pins, evictions, version parking and pruning all
// interleave. Every page a view reads is the image of the view's epoch,
// the view held open across all the commits included.
func TestViewsReadTheirEpochUnderCommits(t *testing.T) {
	pager := NewMemPager()
	ids := fillPages(t, pager, 12)
	pool := NewBufferPool(pager, 4)
	// Commit e rewrites the pages with (i+e)%3 != 0, each with stamp(i, e).
	stamp := func(i int, e uint64) byte { return byte(i*31 + int(e)*7 + 1) }
	image := func(i int, epoch uint64) byte {
		for e := epoch; e > 0; e-- {
			if (i+int(e))%3 != 0 {
				return stamp(i, e)
			}
		}
		return byte(uint32(ids[i]) * 131) // fillPages' image
	}
	const commits = 200
	held := pool.NewView() // open across every commit: each one parks images
	var wg sync.WaitGroup
	var done atomic.Bool
	errc := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for e := uint64(1); e <= commits; e++ {
			pages := map[PageID][]byte{}
			for i, id := range ids {
				if (i+int(e))%3 != 0 {
					pages[id] = bytes.Repeat([]byte{stamp(i, e)}, PageSize)
				}
			}
			if got, err := pool.CommitPages(pages, nil); err != nil || got != e {
				errc <- fmt.Errorf("commit %d: epoch %d, %v", e, got, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < 20 || !done.Load(); n++ {
				v := pool.NewView()
				for sweep := 0; sweep < 2; sweep++ { // the writer moves on meanwhile
					for k := range ids {
						i := (k + r*5) % len(ids)
						f, err := v.Page(ids[i])
						if err != nil {
							errc <- err
							v.Release()
							return
						}
						data, want := f.Data(), image(i, v.Epoch())
						got := data[0]
						same := got == want && data[PageSize/2] == want && data[PageSize-1] == want
						f.Unpin()
						if !same {
							errc <- fmt.Errorf("page %d at epoch %d: read %#x, want %#x", i, v.Epoch(), got, want)
							v.Release()
							return
						}
					}
				}
				v.Release()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, id := range ids {
		f, err := held.Page(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := image(i, 0); f.Data()[0] != want || f.Data()[PageSize-1] != want {
			t.Fatalf("page %d under the view held from epoch 0: %#x, want %#x", i, f.Data()[0], want)
		}
		f.Unpin()
	}
	held.Release()
	if n, a := pool.PinnedCount(), pool.ActiveViews(); n != 0 || a != 0 {
		t.Fatalf("%d frames pinned, %d views active after every reader released", n, a)
	}
	if st := pool.Stats(); st.Evictions == 0 {
		t.Fatal("pool never evicted — the test no longer stresses replacement")
	}
	if pool.ReclaimedImages() == 0 || pool.SupersededImages() != 0 {
		t.Fatalf("%d superseded images reclaimed, %d still parked with no view active",
			pool.ReclaimedImages(), pool.SupersededImages())
	}
}
