package wal

import (
	"time"

	"xst/internal/store"
)

// This file grows the manager from a standalone redo log into the
// durability engine the catalog drives: commit with a caller-supplied
// apply step (so the buffer pool can install images as the catalog
// publishes its version), checkpointing (sync the base, truncate the
// log), a discard log for running with durability off, relaxed-sync
// mode, and observation hooks for the server's metrics registry.

// Hooks observe WAL and transaction activity. All fields are optional;
// they are called synchronously on the committing goroutine.
type Hooks struct {
	// Append fires per log record with the bytes it adds to the log:
	// the record and its frame header, as LoggedBytes counts them.
	Append func(bytes int)
	// Sync fires per log fsync with its duration.
	Sync func(d time.Duration)
	// Begin fires when a transaction starts.
	Begin func()
	// Commit fires when a transaction commits, with its page count.
	Commit func(pages int)
	// Abort fires when a transaction aborts.
	Abort func()
	// Checkpoint fires when the log is folded into the base, with how
	// long the fold (base sync + log sync + truncate) took.
	Checkpoint func(d time.Duration)
}

// SetHooks installs observation hooks (replacing any previous set).
func (m *Manager) SetHooks(h Hooks) {
	m.mu.Lock()
	m.hooks = h
	m.mu.Unlock()
}

// SetNoSync relaxes durability: commits append to the log but skip the
// fsync, which is only forced at checkpoint. A crash can lose the
// commits since the last sync, but never tears one — recovery still
// stops at the last complete commit record. A FileLog cannot tell such
// a crash that persisted a later commit's frames but not an earlier
// one's from corruption, and reports the log corrupt.
func (m *Manager) SetNoSync(v bool) {
	m.mu.Lock()
	m.noSync = v
	m.mu.Unlock()
}

// LoggedBytes reports bytes appended to the log since open or the last
// checkpoint — the auto-checkpoint trigger input.
func (m *Manager) LoggedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logBytes
}

// Base returns the manager's base pager.
func (m *Manager) Base() store.Pager { return m.base }

// appendRec appends one record, tracking size and firing the hook.
func (m *Manager) appendRec(rec []byte) error {
	if err := m.log.Append(rec); err != nil {
		return err
	}
	n := len(rec) + frameHeader
	m.mu.Lock()
	m.logBytes += int64(n)
	hook := m.hooks.Append
	m.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return nil
}

// syncLog makes the log durable (honoring NoSync) and times it.
func (m *Manager) syncLog() error {
	m.mu.Lock()
	skip := m.noSync
	hook := m.hooks.Sync
	m.mu.Unlock()
	if skip {
		return nil
	}
	start := time.Now()
	if err := m.log.Sync(); err != nil {
		return err
	}
	if hook != nil {
		hook(time.Since(start))
	}
	return nil
}

// Checkpoint folds the log into the base pager and truncates the log:
// the base is synced first, so a crash at any point either replays a
// still-complete log or reopens an already-complete base. The caller
// must exclude in-flight transactions, and every committed image must
// already be applied to the base — true for both Commit and CommitWith
// through the buffer pool.
func (m *Manager) Checkpoint() error {
	start := time.Now()
	if s, ok := m.base.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	if err := m.log.Sync(); err != nil { // flush any NoSync tail before dropping it
		return err
	}
	if err := m.log.Reset(); err != nil {
		return err
	}
	m.mu.Lock()
	m.logBytes = 0
	m.checkpoints++
	hook := m.hooks.Checkpoint
	m.mu.Unlock()
	if hook != nil {
		hook(time.Since(start))
	}
	return nil
}

// Checkpoints reports how many times the log has been folded into the
// base since the manager was created.
func (m *Manager) Checkpoints() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpoints
}

// CommitWith logs every dirty page plus the commit marker, syncs the
// log, then hands the after-images to apply — the hook through which
// the buffer pool installs them. The
// transaction gives up ownership of the image buffers; apply must
// write them through to the base pager (see store.CommitPages). A nil
// apply writes directly to the base, which is plain Commit.
func (t *Txn) CommitWith(apply func(pages map[store.PageID][]byte) error) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	m := t.mgr
	for _, id := range t.allocs {
		rec := make([]byte, 1+8+4)
		rec[0] = recAlloc
		putU64(rec[1:], t.id)
		putU32(rec[9:], uint32(id))
		if err := m.appendRec(rec); err != nil {
			return err
		}
	}
	for id, img := range t.shadow {
		rec := make([]byte, 1+8+4+store.PageSize)
		rec[0] = recPage
		putU64(rec[1:], t.id)
		putU32(rec[9:], uint32(id))
		copy(rec[13:], img)
		if err := m.appendRec(rec); err != nil {
			return err
		}
	}
	commit := make([]byte, 1+8)
	commit[0] = recCommit
	putU64(commit[1:], t.id)
	if err := m.appendRec(commit); err != nil {
		return err
	}
	if err := m.syncLog(); err != nil {
		return err
	}
	pages := t.shadow
	t.shadow = nil
	if apply == nil {
		apply = func(pages map[store.PageID][]byte) error {
			for id, img := range pages {
				if err := m.base.WritePage(id, img); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := apply(pages); err != nil {
		return err
	}
	m.mu.Lock()
	hook := m.hooks.Commit
	m.mu.Unlock()
	if hook != nil {
		hook(len(pages))
	}
	return nil
}

// Pages reports how many pages the transaction has written so far.
func (t *Txn) Pages() int { return len(t.shadow) }

// NullLog discards everything: a Manager over it runs transactions with
// no durability (the "WAL off" configuration — commits still apply
// atomically through the pool, there is just nothing to replay).
type NullLog struct{}

// NewNullLog returns the discard log.
func NewNullLog() *NullLog { return &NullLog{} }

// Append implements Log.
func (*NullLog) Append([]byte) error { return nil }

// Records implements Log.
func (*NullLog) Records() ([][]byte, error) { return nil, nil }

// Sync implements Log.
func (*NullLog) Sync() error { return nil }

// Close implements Log.
func (*NullLog) Close() error { return nil }

// Reset implements Log.
func (*NullLog) Reset() error { return nil }

// ShadowPage returns the transaction's buffered after-image of id, if
// it has one. The slice is the live buffer: callers owning the
// transaction may mutate it in place.
func (t *Txn) ShadowPage(id store.PageID) ([]byte, bool) {
	if t.done {
		return nil, false
	}
	img, ok := t.shadow[id]
	return img, ok
}

// Install adopts buf as the transaction's after-image of id — the
// zero-copy WritePage used by the buffer-backed page adapter, which
// reads the committed image into a fresh buffer, mutates it, and hands
// the same buffer to the transaction.
func (t *Txn) Install(id store.PageID, buf []byte) {
	if t.done {
		return
	}
	t.shadow[id] = buf
}
