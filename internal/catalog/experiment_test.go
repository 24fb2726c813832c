package catalog

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/workload"
)

// E17 and E18 measure the transaction path: snapshot readers beside
// streaming commits, and what the write-ahead log's fsync costs. Each
// has a quick-scale test holding its claim and a full-scale benchmark
// holding the same claim.

// mixedRun is one E17 run: spec.Readers goroutines scan whole snapshots,
// first alone for a fixed budget, then while spec.Writers goroutines
// commit spec.Batches batches.
type mixedRun struct {
	spec                workload.MixedSpec
	baseScans, mixScans int
	baseRate, mixRate   float64 // scans per second
	final               int
}

// firstErr keeps the first error any goroutine reports.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// runMixed runs E17. A scan that sees anything but the initial rows
// plus whole batches is a torn commit and fails tb.
func runMixed(tb testing.TB, spec workload.MixedSpec, baseBudget time.Duration) mixedRun {
	tb.Helper()
	db, err := Create(store.NewMemPager(), 2048)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateTable(workload.EventsSchema()); err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	if err := db.Load(ctx, "events", workload.EventRows(spec.Seed, 0, spec.Initial)); err != nil {
		tb.Fatal(err)
	}
	scan := func() (int, error) {
		rt := db.BeginRead()
		defer rt.View.Release()
		tab, err := db.Table("events")
		if err != nil {
			return 0, err
		}
		n := 0
		err = tab.At(rt.View).Scan(func(store.RID, table.Row) (bool, error) {
			n++
			return true, nil
		})
		return n, err
	}
	// readers scans until stop closes, each reader at least once, and
	// returns the number of scans.
	readers := func(stop <-chan struct{}) (int, error) {
		var scans atomic.Int64
		var first firstErr
		var wg sync.WaitGroup
		for r := 0; r < spec.Readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n, err := scan()
					if err == nil && (n < spec.Initial || (n-spec.Initial)%spec.Batch != 0) {
						err = fmt.Errorf("scan saw %d rows, not initial+k×batch: a torn commit", n)
					}
					if err != nil {
						first.set(err)
						return
					}
					scans.Add(1)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		wg.Wait()
		return int(scans.Load()), first.get()
	}

	run := mixedRun{spec: spec}
	stop := make(chan struct{})
	time.AfterFunc(baseBudget, func() { close(stop) })
	start := time.Now()
	if run.baseScans, err = readers(stop); err != nil {
		tb.Fatal(err)
	}
	run.baseRate = float64(run.baseScans) / time.Since(start).Seconds()

	var next atomic.Int64
	var werr firstErr
	var wg sync.WaitGroup
	stop = make(chan struct{})
	start = time.Now()
	for w := 0; w < spec.Writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int(next.Add(1)); b <= spec.Batches; b = int(next.Add(1)) {
				if err := db.Load(ctx, "events", workload.EventRows(spec.Seed, b, spec.Batch)); err != nil {
					werr.set(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()
	if run.mixScans, err = readers(stop); err != nil {
		tb.Fatal(err)
	}
	run.mixRate = float64(run.mixScans) / time.Since(start).Seconds()
	if err := werr.get(); err != nil {
		tb.Fatal(err)
	}
	if run.final, err = scan(); err != nil {
		tb.Fatal(err)
	}
	return run
}

// check holds E17's claims: every batch lands, every reader scans while
// the writers stream, and reader throughput stays within 10× of the
// writer-free rate.
func (r mixedRun) check() error {
	if want := r.spec.Initial + r.spec.Batches*r.spec.Batch; r.final != want {
		return fmt.Errorf("final count %d, want %d", r.final, want)
	}
	if r.mixScans < r.spec.Readers {
		return fmt.Errorf("%d scans while writing, want ≥ one per reader (%d)", r.mixScans, r.spec.Readers)
	}
	if r.mixRate <= r.baseRate/10 {
		return fmt.Errorf("readers scan %.0f/s while writing, %.0f/s alone: more than 10× slower", r.mixRate, r.baseRate)
	}
	return nil
}

// TestMixedReadWrite is E17 at quick scale.
func TestMixedReadWrite(t *testing.T) {
	r := runMixed(t, workload.DefaultMixedSpec(true), 150*time.Millisecond)
	t.Logf("scans/s: %.0f writers off, %.0f writers on", r.baseRate, r.mixRate)
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMixedReadWrite is E17 at full scale; mix/base is reader
// throughput with writers streaming over the writer-free rate.
func BenchmarkMixedReadWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runMixed(b, workload.DefaultMixedSpec(false), 400*time.Millisecond)
		if err := r.check(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.mixRate/r.baseRate, "mix/base")
	}
}

// durabilityRun is one E18 run: the same event stream loaded in
// batch-sized transactions into an in-memory database, a durable one
// that fsyncs every commit and a durable one that does not, plus a
// durable one committing one row per transaction.
type durabilityRun struct {
	rows, naiveRows           int
	mem, fsync, nosync, naive time.Duration
	recovered                 int
}

func runDurability(tb testing.TB, rows, batch, naiveRows int) durabilityRun {
	tb.Helper()
	ctx := context.Background()
	dir := tb.TempDir()
	load := func(db *Database, total, chunk int) time.Duration {
		if _, err := db.CreateTable(workload.EventsSchema()); err != nil {
			tb.Fatal(err)
		}
		start := time.Now()
		for off := 0; off < total; off += chunk {
			if err := db.Load(ctx, "events", workload.EventRows(42, off/chunk, min(chunk, total-off))); err != nil {
				tb.Fatal(err)
			}
		}
		return time.Since(start)
	}
	open := func(name string, create bool) (*Database, *wal.FileLog) {
		pager, err := store.OpenFilePager(filepath.Join(dir, name+".pages"))
		if err != nil {
			tb.Fatal(err)
		}
		log, err := wal.OpenFileLog(filepath.Join(dir, name+".wal"))
		if err != nil {
			tb.Fatal(err)
		}
		var db *Database
		if create {
			db, err = CreateDurable(pager, log, 1024)
		} else {
			db, _, err = OpenDurable(pager, log, 1024)
		}
		if err != nil {
			tb.Fatal(err)
		}
		return db, log
	}
	closeAll := func(db *Database, log *wal.FileLog) {
		if err := db.Close(); err != nil {
			tb.Fatal(err)
		}
		if err := log.Close(); err != nil {
			tb.Fatal(err)
		}
	}

	r := durabilityRun{rows: rows, naiveRows: naiveRows}
	mem, err := Create(store.NewMemPager(), 1024)
	if err != nil {
		tb.Fatal(err)
	}
	r.mem = load(mem, rows, batch)
	db, log := open("fsync", true)
	r.fsync = load(db, rows, batch)
	closeAll(db, log)
	db, log = open("nosync", true)
	db.WAL().SetNoSync(true)
	r.nosync = load(db, rows, batch)
	closeAll(db, log)
	db, log = open("perrow", true)
	r.naive = load(db, naiveRows, 1)
	closeAll(db, log)

	db, log = open("fsync", false)
	defer closeAll(db, log)
	tab, err := db.Table("events")
	if err != nil {
		tb.Fatal(err)
	}
	r.recovered = tab.Count()
	return r
}

// rate is rows per second.
func rate(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

// check holds E18's claims: reopening the fsynced database recovers
// every row, and batched durable commits load more than 3× faster than
// one fsync per row.
func (r durabilityRun) check() error {
	if r.recovered != r.rows {
		return fmt.Errorf("reopen recovered %d/%d rows", r.recovered, r.rows)
	}
	if b, n := rate(r.rows, r.fsync), rate(r.naiveRows, r.naive); b <= 3*n {
		return fmt.Errorf("batched durable load %.0f rows/s, per-row %.0f rows/s: not 3× faster", b, n)
	}
	return nil
}

func (r durabilityRun) String() string {
	return fmt.Sprintf("rows/s: memory %.0f, wal fsync/batch %.0f, wal nosync %.0f, wal fsync/row %.0f; recovered %d/%d",
		rate(r.rows, r.mem), rate(r.rows, r.fsync), rate(r.rows, r.nosync), rate(r.naiveRows, r.naive), r.recovered, r.rows)
}

// TestDurabilityOverhead is E18 at quick scale: 5 000 rows in 500-row
// transactions against 120 one-row transactions.
func TestDurabilityOverhead(t *testing.T) {
	r := runDurability(t, 5_000, 500, 120)
	t.Log(r)
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDurabilityOverhead is E18 at full scale: 50 000 rows in
// 500-row transactions against 1 000 one-row transactions. batched/naive
// is the durable rows/s of the two; fsync/mem is the batched durable
// load time over the in-memory one.
func BenchmarkDurabilityOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runDurability(b, 50_000, 500, 1_000)
		if err := r.check(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rate(r.rows, r.fsync)/rate(r.naiveRows, r.naive), "batched/naive")
		b.ReportMetric(float64(r.fsync)/float64(r.mem), "fsync/mem")
	}
}
