package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// noSlot ends an LRU or free list.
const noSlot = -1

// slot is one frame header of the pool's fixed table. A slot is either
// free (on the free list, through next) or holds a resident page, and a
// resident page is either pinned or on the LRU list (prev/next). gen
// counts the pages the slot has held: a handle records it at pin time,
// so a handle whose slot has moved on to another page is detected. It
// changes only under the pool latch but is read without it (Frame.Data).
type slot struct {
	id         PageID
	data       []byte
	pins       int32
	dirty      bool
	gen        atomic.Uint32
	prev, next int32
}

// BufferPool caches pages over a pager with LRU replacement. Its frame
// headers are one slice sized at construction and reused on eviction;
// the LRU is intrusive, threaded through them. Page buffers are made
// lazily, the first time each slot is used. It holds one image per page,
// the latest: a commit swaps the image (CommitPages), and an older
// version of a heap reads the same image up to its own tail (HeapFile).
type BufferPool struct {
	mu       sync.Mutex
	pager    Pager
	slots    []slot
	resident map[PageID]int32 // page → its slot
	lruHead  int32            // oldest unpinned resident slot
	lruTail  int32            // newest unpinned resident slot
	lruLen   int
	free     int32 // free slots, linked through next
	stats    Stats
}

// PageIO is a source of page frames: the buffer pool (committed images)
// or a wal transaction shadow (uncommitted writes). Heap files read and
// write through it, which is what lets one heap implementation serve
// both. Every source hands out the same value handle, so a fetch
// allocates nothing.
type PageIO interface {
	// Page returns a handle on an existing page.
	Page(id PageID) (Frame, error)
	// AllocatePage creates a fresh page.
	AllocatePage() (Frame, error)
}

// NewBufferPool builds a pool with the given frame capacity (≥ 1).
func NewBufferPool(p Pager, frames int) *BufferPool {
	if frames < 1 {
		panic("store: buffer pool needs at least one frame")
	}
	bp := &BufferPool{
		pager:    p,
		slots:    make([]slot, frames),
		resident: make(map[PageID]int32, frames),
		lruHead:  noSlot,
		lruTail:  noSlot,
		free:     noSlot,
	}
	for i := frames - 1; i >= 0; i-- {
		bp.freeLocked(int32(i))
	}
	return bp
}

// Frame is a pinned page: the value handle every PageIO hands out. It
// holds the page id and the image captured when it was pinned and, for
// a handle on a pool frame, the frame's slot and generation. A frame
// minted by a transaction (ShadowFrame) instead carries where its
// first MarkDirty installs the image. Holders must Unpin when done and
// MarkDirty after mutating Data; methods take a pointer so that
// MarkDirty can record the install in the handle itself.
type Frame struct {
	id     PageID
	slot   int32
	gen    uint32
	data   []byte
	bp     *BufferPool // pool whose slot the handle pins; nil if none
	shadow Shadow      // install target of the first MarkDirty
}

// Shadow receives a transaction's page writes (wal.Txn implements it).
type Shadow interface {
	Install(id PageID, buf []byte)
}

// ShadowFrame is a transaction's handle on data, an image it owns. With
// sh nil the image is already the transaction's; otherwise the first
// MarkDirty installs it into sh. Unpin is a no-op.
func ShadowFrame(id PageID, data []byte, sh Shadow) Frame {
	return Frame{id: id, slot: noSlot, data: data, shadow: sh}
}

// ID returns the page id held by the frame.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page image captured when the frame was pinned. It is
// valid while the frame is pinned; once the pool has given the frame's
// slot to another page it is nil. A commit replaces a frame's image
// rather than mutating it, so a holder keeps reading the image it
// resolved.
func (f *Frame) Data() []byte {
	if f.bp != nil && f.bp.slots[f.slot].gen.Load() != f.gen {
		return nil
	}
	return f.data
}

// MarkDirty records that the page must be written back before eviction
// (a pool frame) or installs the image into its transaction (a shadow
// frame).
func (f *Frame) MarkDirty() {
	switch {
	case f.bp != nil:
		bp := f.bp
		bp.mu.Lock()
		s := &bp.slots[f.slot]
		if s.gen.Load() != f.gen {
			bp.mu.Unlock()
			panic("store: MarkDirty of an evicted frame")
		}
		s.dirty = true
		bp.mu.Unlock()
	case f.shadow != nil:
		f.shadow.Install(f.id, f.data)
		f.shadow = nil
	}
}

// Unpin releases one pin. Unpinned frames become eviction candidates.
// It panics when the frame holds no pin, including when its slot has
// since been given to another page, whose pins it leaves alone.
func (f *Frame) Unpin() {
	bp := f.bp
	if bp == nil {
		return
	}
	bp.mu.Lock()
	s := &bp.slots[f.slot]
	if s.gen.Load() != f.gen || s.pins <= 0 {
		bp.mu.Unlock()
		panic("store: Unpin of unpinned frame")
	}
	s.pins--
	if s.pins == 0 {
		bp.lruPushLocked(f.slot)
	}
	bp.mu.Unlock()
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

// Page implements PageIO for the pool (latest images): it pins the
// page, reading it from the pager on a miss.
func (bp *BufferPool) Page(id PageID) (Frame, error) {
	bp.mu.Lock()
	f, err := bp.pinLocked(id)
	bp.mu.Unlock()
	return f, err
}

// AllocatePage implements PageIO for the pool: a fresh page, pinned,
// reading as zeros.
func (bp *BufferPool) AllocatePage() (Frame, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return Frame{}, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	i, err := bp.claimLocked()
	if err != nil {
		return Frame{}, err
	}
	clear(bp.slots[i].data) // a fresh page reads as zeros, recycled buffer or not
	return bp.installLocked(i, id), nil
}

// Get is Page returning the frame on the heap.
func (bp *BufferPool) Get(id PageID) (*Frame, error) {
	f, err := bp.Page(id)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// Allocate is AllocatePage returning the frame on the heap.
func (bp *BufferPool) Allocate() (*Frame, error) {
	f, err := bp.AllocatePage()
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// frameLocked is the handle on slot i's current page and image.
func (bp *BufferPool) frameLocked(i int32) Frame {
	s := &bp.slots[i]
	return Frame{id: s.id, slot: i, gen: s.gen.Load(), data: s.data, bp: bp}
}

// pinLocked pins page id and returns its handle, reading the page from
// the pager on a miss. A failed read puts the claimed slot back on the
// free list.
func (bp *BufferPool) pinLocked(id PageID) (Frame, error) {
	if i, ok := bp.resident[id]; ok {
		bp.stats.Hits++
		s := &bp.slots[i]
		if s.pins == 0 {
			bp.lruRemoveLocked(i)
		}
		s.pins++
		return bp.frameLocked(i), nil
	}
	bp.stats.Misses++
	i, err := bp.claimLocked()
	if err != nil {
		return Frame{}, err
	}
	if err := bp.pager.ReadPage(id, bp.slots[i].data); err != nil {
		bp.freeLocked(i)
		return Frame{}, err
	}
	return bp.installLocked(i, id), nil
}

// installLocked makes claimed slot i hold page id with one pin and
// returns the handle on it.
func (bp *BufferPool) installLocked(i int32, id PageID) Frame {
	s := &bp.slots[i]
	s.id, s.pins, s.dirty = id, 1, false
	bp.resident[id] = i
	return bp.frameLocked(i)
}

// claimLocked returns a slot with a page buffer for an incoming page: a
// free one, its buffer made on first use, or else the least recently
// used unpinned one, written back first if dirty. Reuse is sound
// because a victim has no pins, so nobody may still read its Data (a
// stale handle sees the generation move and reads nil); an image a
// commit swapped out of its slot is no slot's buffer again.
func (bp *BufferPool) claimLocked() (int32, error) {
	if i := bp.free; i != noSlot {
		s := &bp.slots[i]
		bp.free = s.next
		if s.data == nil {
			s.data = make([]byte, PageSize)
		}
		return i, nil
	}
	i := bp.lruHead
	if i == noSlot {
		return noSlot, ErrPoolExhausted
	}
	s := &bp.slots[i]
	if s.dirty {
		if err := bp.pager.WritePage(s.id, s.data); err != nil {
			return noSlot, err
		}
		bp.stats.Writes++
	}
	bp.lruRemoveLocked(i)
	delete(bp.resident, s.id)
	s.gen.Add(1)
	bp.stats.Evictions++
	bp.stats.Recycled++
	return i, nil
}

// freeLocked puts slot i, holding no page, on the free list.
func (bp *BufferPool) freeLocked(i int32) {
	bp.slots[i].next = bp.free
	bp.free = i
}

// lruPushLocked appends slot i at the newest end of the LRU list.
func (bp *BufferPool) lruPushLocked(i int32) {
	s := &bp.slots[i]
	s.prev, s.next = bp.lruTail, noSlot
	if bp.lruTail == noSlot {
		bp.lruHead = i
	} else {
		bp.slots[bp.lruTail].next = i
	}
	bp.lruTail = i
	bp.lruLen++
}

// lruRemoveLocked unlinks slot i from the LRU list.
func (bp *BufferPool) lruRemoveLocked(i int32) {
	s := &bp.slots[i]
	if s.prev == noSlot {
		bp.lruHead = s.next
	} else {
		bp.slots[s.prev].next = s.next
	}
	if s.next == noSlot {
		bp.lruTail = s.prev
	} else {
		bp.slots[s.next].prev = s.prev
	}
	s.prev, s.next = noSlot, noSlot
	bp.lruLen--
}

// CommitPages installs a committed transaction's page after-images: it
// swaps each resident frame's image for the new one rather than writing
// into it, so a reader that resolved the old image keeps an unchanging
// slice, and writes every image through to the pager, so the base store
// is current as of the last commit (the write-ahead log protects the
// fsync gap). The pool takes ownership of the image slices.
func (bp *BufferPool) CommitPages(pages map[PageID][]byte) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, img := range pages {
		if err := bp.pager.WritePage(id, img); err != nil {
			return err
		}
		bp.stats.Writes++
		if i, ok := bp.resident[id]; ok {
			s := &bp.slots[i]
			s.data = img
			s.dirty = false // base just got this image
		}
	}
	return nil
}

// FlushAll writes every dirty frame back to the pager. Pinned frames are
// flushed but stay resident.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, i := range bp.resident {
		s := &bp.slots[i]
		if !s.dirty {
			continue
		}
		if err := bp.pager.WritePage(s.id, s.data); err != nil {
			return err
		}
		s.dirty = false
		bp.stats.Writes++
	}
	return nil
}

// Info returns the counters and the occupancy in one reading.
func (bp *BufferPool) Info() PoolInfo {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	// Every resident frame is either pinned or on the LRU list.
	return PoolInfo{Stats: bp.stats, Frames: len(bp.resident), Capacity: len(bp.slots), Pinned: len(bp.resident) - bp.lruLen}
}

// PinnedCount reports how many frames are currently pinned (for tests
// and leak checks).
func (bp *BufferPool) PinnedCount() int { return bp.Info().Pinned }

func (bp *BufferPool) String() string {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return fmt.Sprintf("pool{frames=%d/%d hits=%d misses=%d evictions=%d writes=%d}",
		len(bp.resident), len(bp.slots), bp.stats.Hits, bp.stats.Misses, bp.stats.Evictions, bp.stats.Writes)
}
