package catalog

import (
	"context"

	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/xlang"
)

// Durable databases: the same Database, but with the wal.Manager bound
// to a real log instead of the discard log, so every transaction's
// fsync makes it crash-safe, and Open replays whatever the last
// process didn't live to apply.
//
// Recovery invariant: the base pager always holds a prefix of commit
// history (commits write through it after the log fsync), and the log
// holds every commit since the last checkpoint. Reopen therefore
// replays the log's committed transactions over the base — idempotent,
// since page images are absolute — and a torn tail (the transaction a
// crash interrupted mid-append) has no commit marker, so it vanishes
// atomically.

// defaultAutoCheckpoint is the log-size threshold (bytes) at which a
// commit folds the log into the base; see SetAutoCheckpoint.
const defaultAutoCheckpoint = 8 << 20

// CreateDurable formats a fresh database whose mutations are logged to
// log. The formatted base is synced before first use so recovery never
// replays over a half-formatted file.
func CreateDurable(pager store.Pager, log wal.Log, frames int) (*Database, error) {
	db, err := Create(pager, frames)
	if err != nil {
		return nil, err
	}
	if err := db.pool.FlushAll(); err != nil {
		return nil, err
	}
	if s, ok := pager.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return nil, err
		}
	}
	db.mgr = wal.NewManager(pager, log)
	return db, nil
}

// OpenDurable reopens a database, replaying the log's committed
// transactions first (crash recovery), then folding the replayed log
// into the base and truncating it so the next crash has less to redo.
// It returns the database and how many transactions were redone.
func OpenDurable(pager store.Pager, log wal.Log, frames int) (*Database, int, error) {
	redone, err := wal.Recover(pager, log)
	if err != nil {
		return nil, 0, err
	}
	mgr, err := wal.ResumeManager(pager, log)
	if err != nil {
		return nil, 0, err
	}
	db, err := Open(pager, frames)
	if err != nil {
		return nil, 0, err
	}
	db.mgr = mgr
	if err := mgr.Checkpoint(); err != nil {
		return nil, 0, err
	}
	return db, redone, nil
}

// WAL exposes the transaction manager (metrics hooks, sync modes).
func (db *Database) WAL() *wal.Manager { return db.mgr }

// SetAutoCheckpoint sets the logged-bytes threshold past which a
// commit checkpoints automatically; 0 disables.
func (db *Database) SetAutoCheckpoint(bytes int64) {
	db.writeMu.Lock()
	db.autoCk = bytes
	db.writeMu.Unlock()
}

// Checkpoint folds the write-ahead log into the base pager and
// truncates it, shrinking recovery work to zero as of now. It waits
// for any in-flight transaction; snapshot readers are unaffected.
func (db *Database) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.Sync(); err != nil {
		return err
	}
	return db.mgr.Checkpoint()
}

// NewView is kept for benchsurface_test.go: a snapshot is a catalog
// version (BeginRead), so it returns nil, a view that pins nothing.
func (db *Database) NewView() *store.View { return nil }

// ReadTxn is one snapshot of the database: the planner catalog —
// tables, indexes, statistics — of the current version and the commit
// that published it. Every table version reads exactly its own rows, and
// every index version holds exactly their record ids, so a query that
// resolves its tables in Snap gets the index path on every table Snap
// indexes and reads one commit throughout. It is the read snapshot
// xlang takes per statement.
type ReadTxn = xlang.ReadTxn

// BeginRead returns the current version as a read snapshot.
func (db *Database) BeginRead() ReadTxn {
	v := db.current()
	return ReadTxn{Snap: v.plan, Epoch: v.epoch}
}

// Load appends rows to a table as one atomic transaction — one log
// fsync for the whole batch, which is the group-commit-shaped batching
// that keeps durable load throughput close to the in-memory path.
func (db *Database) Load(ctx context.Context, name string, rows []table.Row) error {
	tx := db.Begin()
	if err := tx.Insert(name, rows...); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(ctx)
}
