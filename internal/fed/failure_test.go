package fed

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/xtest"
)

// cancelledCtx returns an already-dead context (force-kill semantics).
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// assertDrained polls until the goroutine count returns to its baseline
// (the coordinator's close hooks, gather workers and the dead site's
// handlers must all exit).
func assertDrained(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, %d before",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSiteKillMidQuery: a site force-killed while its partition streams
// fails the query with a clean site-naming error — no hang, no partial
// silent result, no leaked goroutines. Each partition must dwarf the
// socket and stream buffering between site and coordinator: if a site
// could fit its whole result in flight before the kill lands, its
// stream would complete and the kill would be unobservable — so the
// rows carry a ~1KB payload (~10MB per site).
func TestSiteKillMidQuery(t *testing.T) {
	payload := core.Str(strings.Repeat("x", 1000))
	blobs := make([]table.Row, 30000)
	for i := range blobs {
		blobs[i] = table.Row{core.Int(i), payload}
	}
	blobsSchema := table.Schema{Name: "blobs", Cols: []string{"id", "payload"}}
	lf, err := BootLocal(context.Background(), 3, Config{Retries: -1},
		func(dbs []*catalog.Database) error {
			return CreateSharded(context.Background(), dbs, blobsSchema,
				&catalog.Partition{Kind: catalog.PartHash, Col: "id"}, blobs)
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.Shutdown(context.Background()) })
	before := runtime.NumGoroutine()

	q, err := lf.Coord.Compile("from blobs")
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	var got int
	_, err = q.Run(context.Background(), func(bat *table.Batch) error {
		rows, _ := bat.AppendRows(nil, nil)
		if !killed {
			killed = true
			lf.KillSite(cancelledCtx(), 0)
		}
		got += len(rows)
		return nil
	})
	if err == nil {
		t.Fatalf("query survived mid-stream site kill (%d rows)", got)
	}
	if !strings.Contains(err.Error(), "fed: site") {
		t.Fatalf("kill error does not name the site: %v", err)
	}
	assertDrained(t, before)
}

// TestCancelMidQuery: federated plans abort promptly on context
// cancellation at any poll depth — the first poll, the middle one and
// the last of an uncancelled run — and every worker goroutine and close
// hook exits, checked by xtest's countdown-context harness.
func TestCancelMidQuery(t *testing.T) {
	d := makeData(43, 3000, 900)
	lf := bootTestFed(t, 3, Config{}, d)
	stmt := "from orders join users on uid = id select oid, amount, name"
	run := func(ctx context.Context) error {
		q, err := lf.Coord.Compile(stmt)
		if err != nil {
			return err
		}
		_, err = q.Run(ctx, func(*table.Batch) error { return nil })
		return err
	}
	runFed(t, lf, stmt)
	polls, err := xtest.PollCount(run)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, (polls + 1) / 2, polls} {
		// Warm the connection pools so the aborted run reuses sessions
		// instead of spawning fresh site handlers mid-measurement.
		runFed(t, lf, stmt)
		xtest.AssertCancelAborts(t, n, run)
	}
}

// TestSiteDownDegradation: with one site dead, queries pruned to the
// surviving sites still answer; queries needing the dead site fail with
// a clean error after exhausting retries, and the health gauge and
// retry counters record it.
func TestSiteDownDegradation(t *testing.T) {
	d := makeData(47, 240, 60)
	lf := bootTestFed(t, 3, Config{Retries: 1, Backoff: time.Millisecond}, d)

	// Pick one user id homed on the doomed site 0 and one on site 1.
	dead, alive := -1, -1
	for id := 0; id < 240 && (dead < 0 || alive < 0); id++ {
		switch HashSite(core.Int(id), 3) {
		case 0:
			if dead < 0 {
				dead = id
			}
		case 1:
			if alive < 0 {
				alive = id
			}
		}
	}
	lf.KillSite(cancelledCtx(), 0)

	if _, rows := runFed(t, lf, queryByID(alive)); len(rows) != 1 {
		t.Fatalf("surviving-site probe returned %d rows", len(rows))
	}

	q, err := lf.Coord.Compile(queryByID(dead))
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.Run(context.Background(), func(*table.Batch) error { return nil })
	if err == nil {
		t.Fatal("probe to dead site succeeded")
	}
	if !strings.Contains(err.Error(), "fed: site 0") {
		t.Fatalf("error does not name dead site: %v", err)
	}

	m := lf.Coord.Metrics()
	if m.SitesUp.Value() != 2 {
		t.Fatalf("sites up = %d after kill, want 2", m.SitesUp.Value())
	}
	if m.Retries.Value() < 1 {
		t.Fatal("dead-site probe burned no retries")
	}
	if m.FragErrors.Value() == 0 {
		t.Fatal("dead-site probe counted no fragment errors")
	}
}

func queryByID(id int) string {
	return "from users where id = " + core.Int(id).String()
}
