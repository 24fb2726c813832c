package store

import (
	"context"
	"errors"
	"sort"
	"time"
)

// This file is the MVCC face of the buffer pool: a monotonically
// increasing commit epoch, Views that pin an epoch for the lifetime of
// a streaming read, and version-correct page resolution so a scan
// opened before a commit keeps seeing the pre-commit world while
// writers install new epochs concurrently.
//
// The protocol relies on image immutability at commit: CommitPages
// *swaps* each frame's byte slice for the transaction's after-image
// instead of writing into the shared buffer, and parks the superseded
// slice in a version list while any View that could still read it is
// active. A View therefore resolves a page to a concrete []byte under
// the pool mutex once, and that slice is never mutated afterwards.
// (The writers that still mutate frames in place — the table.Appender
// of an unpublished table, in tests and internal/workload — bypass the
// pool's versions and get no snapshot guarantee; a catalog.Database
// writes every page, its catalog page included, through a commit.)

// PageIO is a source of page frames: the buffer pool (latest images),
// a wal transaction shadow (uncommitted writes), or an epoch-pinned
// View (snapshot reads). Heap files read and write through it, which
// is what lets one heap implementation serve all three worlds. Every
// source hands out the same value handle, so a fetch allocates nothing.
type PageIO interface {
	// Page returns a handle on an existing page.
	Page(id PageID) (Frame, error)
	// AllocatePage creates a fresh page (read-only sources refuse).
	AllocatePage() (Frame, error)
}

// ErrReadOnlyView reports a write through a snapshot view.
var ErrReadOnlyView = errors.New("store: write through a read-only view")

// pageVersion is a superseded page image: valid for views whose epoch
// is below super (and above any earlier version's super).
type pageVersion struct {
	super uint64 // epoch of the commit that superseded this image
	data  []byte
}

// View is a consistent read view of the pool at one commit epoch.
// Pages committed after the view was taken stay invisible; pages it
// resolves are immutable images. Release it when the read finishes so
// superseded images can be dropped.
type View struct {
	bp       *BufferPool
	epoch    uint64
	released bool
}

// NewView pins the current commit epoch and returns its view.
func (bp *BufferPool) NewView() *View {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.active[bp.epoch]++
	if bp.active[bp.epoch] == 1 {
		bp.pinnedAt[bp.epoch] = time.Now()
	}
	return &View{bp: bp, epoch: bp.epoch}
}

// Epoch reports the pool's current commit epoch.
func (bp *BufferPool) Epoch() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.epoch
}

// Epoch reports the view's pinned commit epoch.
func (v *View) Epoch() uint64 { return v.epoch }

// Pool returns the buffer pool the view snapshots. Tables over a
// different pool (session scratch tables, federation mirrors) must not
// resolve their pages through this view.
func (v *View) Pool() *BufferPool { return v.bp }

// Release unpins the view's epoch and prunes page versions no active
// view can reach. Releasing twice is a no-op.
func (v *View) Release() {
	if v == nil || v.released {
		return
	}
	v.released = true
	bp := v.bp
	bp.mu.Lock()
	bp.active[v.epoch]--
	if bp.active[v.epoch] <= 0 {
		delete(bp.active, v.epoch)
		delete(bp.pinnedAt, v.epoch)
	}
	reclaimed := bp.pruneVersionsLocked()
	hook := bp.onPrune
	bp.mu.Unlock()
	// The hook runs outside the pool mutex: prune observations feed a
	// metrics histogram and must never extend the lock's critical
	// section.
	if hook != nil && reclaimed > 0 {
		hook(reclaimed)
	}
}

// pruneVersionsLocked drops versions below every active view's epoch
// and returns how many superseded images it reclaimed.
func (bp *BufferPool) pruneVersionsLocked() int {
	if len(bp.versions) == 0 {
		return 0
	}
	reclaimed := 0
	if len(bp.active) == 0 {
		for _, vs := range bp.versions {
			reclaimed += len(vs)
		}
		bp.versions = map[PageID][]pageVersion{}
		bp.reclaimed += uint64(reclaimed)
		return reclaimed
	}
	min := uint64(^uint64(0))
	for e := range bp.active {
		if e < min {
			min = e
		}
	}
	for id, vs := range bp.versions {
		i := 0
		for i < len(vs) && vs[i].super <= min {
			i++
		}
		if i == len(vs) {
			reclaimed += len(vs)
			delete(bp.versions, id)
		} else if i > 0 {
			reclaimed += i
			bp.versions[id] = vs[i:]
		}
	}
	bp.reclaimed += uint64(reclaimed)
	return reclaimed
}

// SetPruneHook installs a per-prune observer called with the number of
// superseded images each version-chain prune reclaims (outside the pool
// mutex). One observer; nil clears it.
func (bp *BufferPool) SetPruneHook(fn func(images int)) {
	bp.mu.Lock()
	bp.onPrune = fn
	bp.mu.Unlock()
}

// EpochPin describes one pinned snapshot epoch: its refcount and when
// its first still-active pin was taken.
type EpochPin struct {
	Epoch uint64
	Refs  int
	Since time.Time
}

// ActivePins reports the pinned snapshot epochs, ascending — the
// `__sys.txns` view's rows.
func (bp *BufferPool) ActivePins() []EpochPin {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]EpochPin, 0, len(bp.active))
	for e, refs := range bp.active {
		out = append(out, EpochPin{Epoch: e, Refs: refs, Since: bp.pinnedAt[e]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// OldestPinnedAge reports how long the oldest still-pinned snapshot has
// been held, or 0 with none active — the gauge that exposes long-pinned
// snapshots holding superseded pages alive.
func (bp *BufferPool) OldestPinnedAge() time.Duration {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var oldest time.Time
	for _, at := range bp.pinnedAt {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// SupersededImages reports how many superseded page images the pool
// currently retains for active views (VersionedPages counts pages; a
// page may carry several images).
func (bp *BufferPool) SupersededImages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, vs := range bp.versions {
		n += len(vs)
	}
	return n
}

// ReclaimedImages reports the lifetime total of superseded images
// dropped by version-chain pruning.
func (bp *BufferPool) ReclaimedImages() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.reclaimed
}

// Page implements PageIO: the page image as of the view's epoch, a
// read-only frame. A superseded image pins nothing; the current image
// pins its pool frame, captured under the latch so that a concurrent
// commit's pointer swap cannot slip a newer image under us.
func (v *View) Page(id PageID) (Frame, error) {
	bp := v.bp
	bp.mu.Lock()
	for _, pv := range bp.versions[id] {
		if pv.super > v.epoch {
			bp.mu.Unlock()
			return Frame{id: id, slot: noSlot, readOnly: true, data: pv.data}, nil
		}
	}
	f, err := bp.pinLocked(id)
	bp.mu.Unlock()
	f.readOnly = true
	return f, err
}

// AllocatePage implements PageIO: views are read-only.
func (v *View) AllocatePage() (Frame, error) { return Frame{}, ErrReadOnlyView }

// absentPage is the image an older view reads for a page allocated
// after its epoch: an empty slotted page, shared and never written.
var absentPage = func() []byte {
	buf := make([]byte, PageSize)
	InitPage(buf)
	return buf
}()

// CommitPages atomically installs a committed transaction's page
// after-images and advances the commit epoch. While a view is active,
// every page gets its image before the commit parked in the version
// list: the current image of an existing page, and, for a page fresh
// reports as allocated by the transaction itself, absentPage — a newer
// table version's page list names such a page, and a view older than
// the page must read it as holding no records. Every image
// is also written through to the pager, so the base store is current
// as of the last commit (the write-ahead log protects the fsync gap).
// The pool takes ownership of the image slices. It returns the new
// commit epoch.
func (bp *BufferPool) CommitPages(pages map[PageID][]byte, fresh map[PageID]bool) (uint64, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	next := bp.epoch + 1
	for id, img := range pages {
		if len(bp.active) > 0 {
			old := absentPage
			if !fresh[id] {
				if i, ok := bp.resident[id]; ok {
					old = bp.slots[i].data // superseded below; immutable from here on
				} else {
					old = make([]byte, PageSize)
					if err := bp.pager.ReadPage(id, old); err != nil {
						return 0, err
					}
				}
			}
			bp.versions[id] = append(bp.versions[id], pageVersion{super: next, data: old})
		}
		if err := bp.pager.WritePage(id, img); err != nil {
			return 0, err
		}
		bp.stats.Writes++
		if i, ok := bp.resident[id]; ok {
			s := &bp.slots[i]
			s.data = img
			s.dirty = false // base just got this image
		}
	}
	bp.epoch = next
	return next, nil
}

// ActiveViews reports how many views are pinned (tests, metrics).
func (bp *BufferPool) ActiveViews() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, c := range bp.active {
		n += c
	}
	return n
}

// viewKey carries a *View through a context.
type viewKey struct{}

// WithView returns a context carrying the view; operators opened under
// it resolve table pages at the view's epoch.
func WithView(ctx context.Context, v *View) context.Context {
	return context.WithValue(ctx, viewKey{}, v)
}

// ViewFrom returns the context's view, or nil.
func ViewFrom(ctx context.Context) *View {
	v, _ := ctx.Value(viewKey{}).(*View)
	return v
}
