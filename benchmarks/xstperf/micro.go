package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
)

// micro times the public functions of the layers below exec on the
// workload's own data, single-threaded, after the replay: the biggest
// table, and the first hash and btree index the database declares.
// Every loop has a fixed count so the numbers compare across commits.
func (w *world) micro() (vals, error) {
	out := vals{}
	r := rng(w.seed, -2)
	var big *table.Table
	for _, name := range w.db.Names() {
		t := w.table(name)
		if big == nil || t.Count() > big.Count() {
			big = t
		}
		seeded := w.sp.seeded(name)
		for _, ix := range w.db.Indexes(name) {
			if ix.Hash != nil && out["index.hash_lookup_ns"].n == 0 {
				const n = 20_000
				keys := make([]string, n)
				for i := range keys {
					keys[i] = core.Key(core.Int(r.Intn(seeded)))
				}
				t0 := time.Now()
				for _, k := range keys {
					if len(ix.Hash.Lookup(k)) != 1 {
						return nil, errMicro("hash lookup on " + name)
					}
				}
				out["index.hash_lookup_ns"] = val{float64(time.Since(t0).Nanoseconds()) / n, n}
				out["index.hash_depth"] = val{float64(ix.Hash.Depth()), 1}
			}
			if ix.BTree != nil && out["index.btree_range_us"].n == 0 {
				const n = 2000
				t0 := time.Now()
				for i := 0; i < n; i++ {
					lo := r.Intn(seeded - rangeRows)
					got := 0
					ix.BTree.Range(core.OrderKey(core.Int(lo)), core.OrderKey(core.Int(lo+rangeRows)),
						func(string, []store.RID) bool { got++; return true })
					if got != rangeRows {
						return nil, errMicro("btree range on " + name)
					}
				}
				out["index.btree_range_us"] = val{us(time.Since(t0)) / n, n}
			}
		}
	}

	// One full page-at-a-time scan, keeping a sample of record ids and rows.
	var rids []store.RID
	var rows []table.Row
	view := w.db.NewView()
	defer view.Release()
	snap := big.At(view)
	t0 := time.Now()
	scanned := 0
	if err := snap.ScanBatches(func(_ store.PageID, batch []table.Row) (bool, error) {
		scanned += len(batch)
		return true, nil
	}); err != nil {
		return nil, err
	}
	out["table.scan_rows_per_s"] = val{float64(scanned) / time.Since(t0).Seconds(), scanned}
	stride := max(scanned/2000, 1)
	i := 0
	if err := snap.Scan(func(rid store.RID, row table.Row) (bool, error) {
		if i%stride == 0 {
			rids = append(rids, rid)
			rows = append(rows, row)
		}
		i++
		return true, nil
	}); err != nil {
		return nil, err
	}
	r.Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	t0 = time.Now()
	for _, rid := range rids {
		if _, err := snap.Get(rid); err != nil {
			return nil, err
		}
	}
	out["table.get_us"] = val{us(time.Since(t0)) / float64(len(rids)), len(rids)}

	const codecRounds = 10
	var buf []byte
	t0 = time.Now()
	for round := 0; round < codecRounds; round++ {
		for _, row := range rows {
			buf = table.EncodeRow(buf[:0], row)
			if _, err := table.DecodeRow(buf); err != nil {
				return nil, err
			}
		}
	}
	n := codecRounds * len(rows)
	out["table.codec_ns_per_row"] = val{float64(time.Since(t0).Nanoseconds()) / float64(n), n}

	pages, err := big.PageIDs()
	if err != nil {
		return nil, err
	}
	const gets = 20_000
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		f, err := w.db.Pool().Get(pages[r.Intn(len(pages))])
		if err != nil {
			return nil, err
		}
		f.Unpin()
	}
	out["store.get_ns"] = val{float64(time.Since(t0).Nanoseconds()) / gets, gets}

	if w.sp.pairs > 0 {
		const builds = 200
		t0 = time.Now()
		for i := 0; i < builds; i++ {
			if pairSet(w.data.f).Len() == 0 {
				return nil, errMicro("core.Builder")
			}
		}
		out["core.build_us"] = val{us(time.Since(t0)) / builds, builds}
	}
	return out, nil
}

func errMicro(what string) error {
	return fmt.Errorf("micro-measurement gave a wrong answer: %s", what)
}

// durability checks, on the durable workload, that every acknowledged
// row survives: checkpoint, load `extra` further fixed chunks with the
// automatic checkpoint out of reach (so the log holds them), copy the
// page and log files without closing the database, recover the copy,
// and count acknowledged ids the recovered table lacks.
func (w *world) durability(streams []*stream, extra int) (took time.Duration, checked, missing int, err error) {
	if _, err := w.clients[0].Eval(".checkpoint"); err != nil {
		return 0, 0, 0, err
	}
	w.db.SetAutoCheckpoint(1 << 40)
	want := map[int64]bool{}
	for id := int64(0); id < int64(w.sp.events); id++ {
		want[id] = true
	}
	base := connBase(len(streams)) // past the ids of every stream
	for i := 0; i < extra; i++ {
		o := loadOp(base+int64(i)*chunkRows, int64(i))
		if err := w.db.Load(context.Background(), "events", o.chunk); err != nil {
			return 0, 0, 0, err
		}
		for j := int64(0); j < chunkRows; j++ {
			want[o.first+j] = true
		}
	}
	for _, s := range streams {
		for _, first := range s.acked {
			for j := int64(0); j < chunkRows; j++ {
				want[first+j] = true
			}
		}
	}
	got, took, err := w.recoverCopy()
	if err != nil {
		return 0, 0, 0, err
	}
	for id := range want {
		if v, ok := got[id]; !ok || v != eventVal(id) {
			missing++
		}
	}
	return took, len(want), missing, nil
}

// recoverCopy copies the page and log files of the open database,
// recovers the copy with catalog.OpenDurable, and returns its events as
// id → val with the time recovery took.
func (w *world) recoverCopy() (map[int64]int64, time.Duration, error) {
	pages, log := filepath.Join(w.dir, "copy.pages"), filepath.Join(w.dir, "copy.wal")
	for dst, src := range map[string]string{pages: w.pagePath(), log: w.logPath()} {
		if err := copyFile(dst, src); err != nil {
			return nil, 0, err
		}
	}
	pager, err := store.OpenFilePager(pages)
	if err != nil {
		return nil, 0, err
	}
	flog, err := wal.OpenFileLog(log)
	if err != nil {
		pager.Close()
		return nil, 0, err
	}
	defer flog.Close()
	t0 := time.Now()
	db, _, err := catalog.OpenDurable(pager, flog, w.sp.frames)
	if err != nil {
		pager.Close()
		return nil, 0, err
	}
	took := time.Since(t0)
	defer db.Close()
	events, err := db.Table("events")
	if err != nil {
		return nil, 0, err
	}
	got := make(map[int64]int64, events.Count())
	err = events.Scan(func(_ store.RID, r table.Row) (bool, error) {
		id, _ := r[0].(core.Int)
		v, _ := r[2].(core.Int)
		got[int64(id)] = int64(v)
		return true, nil
	})
	return got, took, err
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
