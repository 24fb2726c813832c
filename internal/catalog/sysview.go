package catalog

import (
	"context"
	"time"

	"xst/internal/core"
	"xst/internal/sysview"
	"xst/internal/table"
	"xst/internal/xlang"
)

// This file publishes the database's own durability and planner state
// as `__sys.*` virtual tables — the storage-layer half of the system
// catalog (the server adds queries/metrics/slow, the federation
// coordinator adds sites). Each view's Rows function reads live state
// at query open, so `from __sys.wal` always answers for *now*, not for
// when the server started.

// SysTables returns the database-derived system views: the stored
// tables (__sys.tables), WAL/MVCC health (__sys.wal), pinned snapshot
// epochs (__sys.txns), declared indexes (__sys.indexes), per-column
// statistics (__sys.stats) and the buffer pool (__sys.bufferpool).
func (db *Database) SysTables() []*sysview.Table {
	return []*sysview.Table{
		sysview.Standard(sysview.Tables,
			"stored tables: columns, rows, sampled row bytes, partition spec", db.tableRows),
		sysview.Standard(sysview.Wal,
			"write-ahead-log and MVCC version-chain health", db.walRows),
		sysview.Standard(sysview.Txns,
			"pinned MVCC snapshot epochs and their ages", db.txnRows),
		sysview.Standard(sysview.Indexes,
			"declared indexes visible to the planner", db.indexRows),
		sysview.Standard(sysview.Stats,
			"per-column statistics from the last analyze", db.statRows),
		sysview.Standard(sysview.Pool,
			"buffer-pool occupancy and hit/miss/eviction counters",
			func(context.Context) ([]table.Row, error) {
				return []table.Row{sysview.PoolRow(db.Pool().Info())}, nil
			}),
	}
}

// tableRows is one row per stored table, read in one version: name,
// columns, row count, sampled row bytes and the partition spec, whose
// bounds are the ⟨bounds…⟩ tuple the catalog set stores on page 0.
// Distinct counts are __sys.stats's.
func (db *Database) tableRows(ctx context.Context) ([]table.Row, error) {
	view, v := db.beginRead()
	defer view.Release()
	names := sortedNames(v.plan.Tables)
	out := make([]table.Row, 0, len(names))
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := v.plan.Tables[name].At(view)
		cols := make([]core.Value, len(t.Schema().Cols))
		for i, c := range t.Schema().Cols {
			cols[i] = core.Str(c)
		}
		p := v.parts[name]
		out = append(out, table.Row{
			core.Str(name), core.Tuple(cols...),
			core.Int(int64(t.Count())), core.Int(int64(sampleRowBytes(t))),
			core.Str(p.Kind), core.Str(p.Col),
			core.Int(int64(p.Site)), core.Int(int64(p.Sites)), core.Tuple(p.Bounds...),
		})
	}
	return out, nil
}

// sampleRowBytes averages the encoded size of the table's first heap
// page of rows — enough signal for a coordinator's byte-cost model.
func sampleRowBytes(t *table.Table) int {
	ids, _ := t.PageIDs() // reads the heap's own list, and cannot fail
	var pb table.PageBatch
	b, err := t.ReadPage(ids[0], &pb, nil)
	if err != nil || b.Len == 0 {
		return 0
	}
	total := 0
	var enc []byte
	for i := 0; i < b.Len; i++ {
		enc = b.EncodeRow(enc[:0], i)
		total += len(enc)
	}
	return total / b.Len
}

// walRows is one row of durability health: commit epoch, log bytes
// since checkpoint, retained superseded images, pinned snapshots with
// the oldest pin's age, and the lifetime checkpoint count.
func (db *Database) walRows(context.Context) ([]table.Row, error) {
	pool := db.Pool()
	return []table.Row{{
		core.Int(int64(pool.Epoch())),
		core.Int(db.WAL().LoggedBytes()),
		core.Int(int64(pool.SupersededImages())),
		core.Int(int64(len(pool.ActivePins()))),
		core.Int(pool.OldestPinnedAge().Microseconds()),
		core.Int(db.WAL().Checkpoints()),
	}}, nil
}

// txnRows is one row per pinned snapshot epoch, oldest first.
func (db *Database) txnRows(context.Context) ([]table.Row, error) {
	pins := db.Pool().ActivePins()
	now := time.Now()
	out := make([]table.Row, 0, len(pins))
	for _, p := range pins {
		out = append(out, table.Row{
			core.Int(int64(p.Epoch)),
			core.Int(int64(p.Refs)),
			core.Int(now.Sub(p.Since).Microseconds()),
		})
	}
	return out, nil
}

// indexRows is one row per declared index with its built entry count,
// read in one version.
func (db *Database) indexRows(context.Context) ([]table.Row, error) {
	var out []table.Row
	for _, ix := range byTable(db.current().plan.Indexes) {
		entries := 0
		switch {
		case ix.Hash != nil:
			entries = ix.Hash.Len()
		case ix.BTree != nil:
			entries = ix.BTree.Len()
		}
		out = append(out, table.Row{
			core.Str(ix.Table.Schema().Name), core.Str(ix.Col), core.Str(ix.Kind.String()),
			core.Int(int64(entries)),
		})
	}
	return out, nil
}

// statRows is one row per analyzed column, read in one version: table,
// column, row count, distinct count — the numbers plan costing actually
// reads.
func (db *Database) statRows(context.Context) ([]table.Row, error) {
	v := db.current()
	var out []table.Row
	for _, tbl := range sortedNames(v.plan.Stats) {
		t, ok := v.plan.Tables[tbl]
		if !ok {
			continue
		}
		cols := t.Schema().Cols
		ts := v.plan.Stats[tbl]
		for i, c := range ts.Columns {
			if i >= len(cols) {
				break
			}
			out = append(out, table.Row{
				core.Str(tbl), core.Str(cols[i]),
				core.Int(int64(ts.Rows)), core.Int(int64(c.Distinct)),
			})
		}
	}
	return out, nil
}

// bindSysViews registers the database's system views in env, so
// `from __sys.wal where …` compiles onto the same operator tree as a
// stored-table query.
func (db *Database) bindSysViews(env *xlang.Env) {
	for _, t := range db.SysTables() {
		env.BindVirtual(t.Name, t)
	}
}
