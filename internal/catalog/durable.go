package catalog

import (
	"context"

	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
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

// NewView pins a snapshot view of the database at the current commit
// epoch. Release it when done. Scans run under store.WithView(ctx,v)
// then return exactly the rows committed before the pin, regardless of
// concurrent commits.
func (db *Database) NewView() *store.View { return db.pool.NewView() }

// ReadTxn is one snapshot of the database: the pinned commit epoch and
// the planner catalog — tables, indexes, statistics — that was current
// at the same instant. A query that resolves its tables in Snap and runs
// under View gets the index path on every table Snap indexes, and never
// probes an index holding record ids from a commit the View cannot see.
type ReadTxn struct {
	View *store.View
	Snap *plan.Catalog
}

// BeginRead atomically pins the current epoch and planner snapshot.
// Commits publish both under the same lock, so the pair is always
// mutually consistent. Release the View when the read finishes.
func (db *Database) BeginRead() ReadTxn {
	view, v := db.beginRead()
	return ReadTxn{View: view, Snap: v.plan}
}

// beginRead pins the current epoch and returns it with its version.
func (db *Database) beginRead() (*store.View, *version) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.pool.NewView(), db.cur
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
