package store

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Stats counts buffer-pool activity. The set-vs-record experiments read
// these counters to compare page-touch behavior.
type Stats struct {
	Hits      uint64 // page found in pool
	Misses    uint64 // page read from the pager
	Evictions uint64 // frames reclaimed
	Writes    uint64 // dirty pages written back
	Recycled  uint64 // evicted page buffers reused for the incoming page
}

// PoolInfo is one consistent reading of a pool: its counters and its
// occupancy, taken under one latch — the row `__sys.bufferpool` and the
// `xstd_pool_*` gauges both report.
type PoolInfo struct {
	Stats
	Frames   int // pages resident
	Capacity int // frame budget
	Pinned   int // resident pages with at least one pin
}

// ErrPoolExhausted reports that every frame is pinned.
var ErrPoolExhausted = errors.New("store: buffer pool exhausted (all frames pinned)")

// Frame is a pinned page in the pool. Callers must Unpin when done and
// MarkDirty after mutating Data.
type Frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	elem  *list.Element // position in LRU list when unpinned
	pool  *BufferPool
}

// ID returns the page id held by the frame.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. Valid while the frame is pinned. The
// read is synchronized because a transaction commit replaces the slice
// (pointer swap) rather than mutating it in place; holders of the
// returned slice keep reading the image they resolved.
func (f *Frame) Data() []byte {
	f.pool.mu.Lock()
	d := f.data
	f.pool.mu.Unlock()
	return d
}

// MarkDirty records that the page must be written back before eviction.
func (f *Frame) MarkDirty() {
	f.pool.mu.Lock()
	f.dirty = true
	f.pool.mu.Unlock()
}

// Unpin releases one pin. Unpinned frames become eviction candidates.
func (f *Frame) Unpin() {
	f.pool.mu.Lock()
	defer f.pool.mu.Unlock()
	if f.pins <= 0 {
		panic("store: Unpin of unpinned frame")
	}
	f.pins--
	if f.pins == 0 {
		f.elem = f.pool.lru.PushBack(f)
	}
}

// BufferPool caches pages over a pager with LRU replacement. It also
// carries the MVCC state (see view.go): the commit epoch, refcounts of
// epochs pinned by active Views, and superseded page images retained
// for them.
type BufferPool struct {
	mu     sync.Mutex
	pager  Pager
	frames map[PageID]*Frame
	lru    *list.List // unpinned frames, front = oldest
	cap    int
	stats  Stats

	epoch    uint64                   // last committed epoch
	active   map[uint64]int           // epoch → pinned-view count
	versions map[PageID][]pageVersion // superseded images, ascending super

	// MVCC health telemetry (view.go): when each active epoch was first
	// pinned, how many superseded images pruning has dropped over the
	// pool's lifetime, and an optional per-prune observation hook.
	pinnedAt  map[uint64]time.Time
	reclaimed uint64
	onPrune   func(images int)
}

// NewBufferPool builds a pool with the given frame capacity (≥ 1).
func NewBufferPool(p Pager, frames int) *BufferPool {
	if frames < 1 {
		panic("store: buffer pool needs at least one frame")
	}
	return &BufferPool{
		pager:    p,
		frames:   make(map[PageID]*Frame, frames),
		lru:      list.New(),
		cap:      frames,
		active:   map[uint64]int{},
		versions: map[PageID][]pageVersion{},
		pinnedAt: map[uint64]time.Time{},
	}
}

// Stats returns a snapshot of the counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters (between experiment phases).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	bp.stats = Stats{}
	bp.mu.Unlock()
}

// Get pins the page into the pool, reading it from the pager on a miss.
func (bp *BufferPool) Get(id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.getLocked(id)
}

// getLocked is Get with bp.mu already held (shared with View.Page).
func (bp *BufferPool) getLocked(id PageID) (*Frame, error) {
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		if f.pins == 0 {
			bp.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return f, nil
	}
	bp.stats.Misses++
	buf, err := bp.bufferLocked()
	if err != nil {
		return nil, err
	}
	if err := bp.pager.ReadPage(id, buf); err != nil {
		return nil, err
	}
	f := &Frame{id: id, data: buf, pins: 1, pool: bp}
	bp.frames[id] = f
	return f, nil
}

// Allocate creates a fresh page and returns it pinned.
func (bp *BufferPool) Allocate() (*Frame, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	buf, err := bp.bufferLocked()
	if err != nil {
		return nil, err
	}
	clear(buf) // a fresh page reads as zeros, recycled buffer or not
	f := &Frame{id: id, data: buf, pins: 1, pool: bp}
	bp.frames[id] = f
	return f, nil
}

// bufferLocked returns a page buffer for an incoming page. Below
// capacity it is new; at capacity it is the buffer of the least
// recently used unpinned frame, written back first if dirty. Reuse is
// sound because a victim has no pins, so nobody may still read its
// Data, and because the only other holders of page bytes are the
// version lists, which own slices a commit has already swapped out of
// their frames.
func (bp *BufferPool) bufferLocked() ([]byte, error) {
	if len(bp.frames) < bp.cap {
		return make([]byte, PageSize), nil
	}
	front := bp.lru.Front()
	if front == nil {
		return nil, ErrPoolExhausted
	}
	victim := front.Value.(*Frame)
	if victim.dirty {
		if err := bp.pager.WritePage(victim.id, victim.data); err != nil {
			return nil, err
		}
		bp.stats.Writes++
	}
	bp.lru.Remove(front)
	victim.elem = nil
	delete(bp.frames, victim.id)
	bp.stats.Evictions++
	bp.stats.Recycled++
	buf := victim.data
	victim.data = nil
	return buf, nil
}

// FlushAll writes every dirty frame back to the pager. Pinned frames are
// flushed but stay resident.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.frames {
		if !f.dirty {
			continue
		}
		if err := bp.pager.WritePage(f.id, f.data); err != nil {
			return err
		}
		f.dirty = false
		bp.stats.Writes++
	}
	return nil
}

// Info returns the counters and the occupancy in one reading.
func (bp *BufferPool) Info() PoolInfo {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	// Every resident frame is either pinned or on the LRU list.
	return PoolInfo{Stats: bp.stats, Frames: len(bp.frames), Capacity: bp.cap, Pinned: len(bp.frames) - bp.lru.Len()}
}

// PinnedCount reports how many frames are currently pinned (for tests
// and leak checks).
func (bp *BufferPool) PinnedCount() int { return bp.Info().Pinned }

func (bp *BufferPool) String() string {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return fmt.Sprintf("pool{frames=%d/%d hits=%d misses=%d evictions=%d writes=%d}",
		len(bp.frames), bp.cap, bp.stats.Hits, bp.stats.Misses, bp.stats.Evictions, bp.stats.Writes)
}
