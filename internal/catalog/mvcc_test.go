package catalog

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// Snapshot isolation, differentially: a view pinned before a commit
// must keep answering the exact pre-commit row set — compared against a
// materialized oracle — no matter how many transactions land after the
// pin, while an unpinned read sees the latest world.

func mvccRows(batch, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(batch)), core.Int(int64(i))}
	}
	return rows
}

func scanAll(t *testing.T, tab *table.Table) []string {
	t.Helper()
	var out []string
	err := tab.Scan(func(_ store.RID, r table.Row) (bool, error) {
		out = append(out, fmt.Sprint(r))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotIsolation(t *testing.T) {
	db, err := Create(store.NewMemPager(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := db.Load(ctx, "ev", mvccRows(0, 40)); err != nil {
		t.Fatal(err)
	}

	// Pin, record the oracle, then commit ten more batches.
	rt := db.BeginRead()
	defer rt.View.Release()
	pinned, _ := db.Table("ev")
	oracle := scanAll(t, pinned.At(rt.View))
	if len(oracle) != 40 {
		t.Fatalf("oracle has %d rows, want 40", len(oracle))
	}
	for b := 1; b <= 10; b++ {
		if err := db.Load(ctx, "ev", mvccRows(b, 40)); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned view still answers exactly the oracle; the committed
	// world has moved on.
	cur, _ := db.Table("ev")
	if got := scanAll(t, cur.At(rt.View)); fmt.Sprint(got) != fmt.Sprint(oracle) {
		t.Fatalf("pinned view diverged from oracle:\n got %d rows\nwant %d rows", len(got), len(oracle))
	}
	if got := scanAll(t, cur); len(got) != 11*40 {
		t.Fatalf("latest read sees %d rows, want %d", len(got), 11*40)
	}

	// A view pinned now sees all eleven batches even while later
	// commits land.
	rt2 := db.BeginRead()
	defer rt2.View.Release()
	if err := db.Load(ctx, "ev", mvccRows(11, 40)); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, cur.At(rt2.View)); len(got) != 11*40 {
		t.Fatalf("second view sees %d rows, want %d", len(got), 11*40)
	}
}

// Concurrent readers each pin a snapshot at a random moment while a
// writer streams commits; every reader must observe a whole number of
// batches, and exactly the number current at its pin.
func TestSnapshotIsolationConcurrent(t *testing.T) {
	db, err := Create(store.NewMemPager(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const batch, nBatches, readers = 25, 30, 8

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			count := func(tab *table.Table, v *store.View) (int, error) {
				n := 0
				err := tab.At(v).Scan(func(store.RID, table.Row) (bool, error) {
					n++
					return true, nil
				})
				return n, err
			}
			for k := 0; k < 6; k++ {
				rt := db.BeginRead()
				tab, err := db.Table("ev")
				if err != nil {
					rt.View.Release()
					errs <- err
					return
				}
				n, err := count(tab, rt.View)
				if err == nil {
					// The writer keeps committing; a second pass
					// through the same view must see the same world.
					var n2 int
					if n2, err = count(tab, rt.View); err == nil && n2 != n {
						err = fmt.Errorf("reader %d: view unstable, %d then %d rows", r, n, n2)
					}
				}
				rt.View.Release()
				if err != nil {
					errs <- err
					return
				}
				if n%batch != 0 {
					errs <- fmt.Errorf("reader %d saw %d rows — mid-transaction state leaked", r, n)
					return
				}
			}
		}(r)
	}
	close(start)
	for b := 0; b < nBatches; b++ {
		if err := db.Load(ctx, "ev", mvccRows(b, batch)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotReadersThroughPoisonedScans runs the concurrent-reader
// experiment through the operator tree instead of Table.Scan: each
// reader pins a snapshot, resolves the table in it, and streams it both
// serially and through morsel workers behind a Gather, with
// xtest.PoisonScratch around every scan, while the writer commits. A
// reader must see exactly the rows of its snapshot's table — whole
// batches, every value intact although the scans reuse their slabs and
// the pool reuses its buffers under them.
func TestSnapshotReadersThroughPoisonedScans(t *testing.T) {
	// More frames than the readers and the writer can pin at once (4 × 3
	// workers + 2), fewer than the table's pages by the end, so readers
	// also evict.
	db, err := Create(store.NewMemPager(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const batch, nBatches, readers = 400, 30, 4

	// check streams op under the read's view and verifies that batch b
	// is there in full for every b below the snapshot's batch count.
	check := func(rt ReadTxn, want int, op exec.Operator) error {
		seen := make([]int, want/batch)
		err := exec.Stream(store.WithView(ctx, rt.View), op, func(rows []table.Row) error {
			for _, r := range rows {
				b, ok := r[0].(core.Int)
				if !ok || int(b) >= len(seen) {
					return fmt.Errorf("row %v in a snapshot of %d batches", r, len(seen))
				}
				seen[b]++
			}
			return nil
		})
		for b, n := range seen {
			if err == nil && n != batch {
				err = fmt.Errorf("batch %d has %d of %d rows", b, n, batch)
			}
		}
		return err
	}
	poisoned := func(op exec.Operator) exec.Operator { return xtest.PoisonScratch(op) }

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < 8; k++ {
				rt := db.BeginRead()
				tab, ok := rt.Snap.Table("ev")
				if !ok {
					rt.View.Release()
					errs <- fmt.Errorf("reader %d: snapshot has no table ev", r)
					return
				}
				want := tab.Count()
				err := check(rt, want, poisoned(exec.NewScan(tab, nil)))
				if err == nil {
					src := tab.NewMorselSource()
					err = check(rt, want, exec.NewGather([]exec.Operator{
						poisoned(exec.NewMorselScan(src, nil)),
						poisoned(exec.NewMorselScan(src, nil)),
						poisoned(exec.NewMorselScan(src, nil)),
					}))
				}
				rt.View.Release()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	close(start)
	for b := 0; b < nBatches; b++ {
		if err := db.Load(ctx, "ev", mvccRows(b, batch)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
