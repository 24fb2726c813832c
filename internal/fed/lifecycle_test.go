package fed

// Regression tests for the lifecycle violations xstvet's interprocedural
// analyzers surfaced in this package: Remote.Next abandoning a live
// connection on its ctx-err exit (connclose), gatherCache holding its
// mutex across a network gather so waiters could not honor their own
// deadline (lockheld), and BootLocal's accept loops outliving Shutdown
// (goleak).

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"xst/internal/exec"
	"xst/internal/table"
)

// TestRemoteCancelDropsConn: a Remote whose context dies between
// batches must drop its connection and stop its close hook on the ctx-err
// exit itself — the conn has unread lines, so leaving it for Close
// risks pooling a dirty connection if the exits ever diverge.
func TestRemoteCancelDropsConn(t *testing.T) {
	d := makeData(51, 4000, 100)
	lf := bootTestFed(t, 1, Config{}, d)
	c := lf.Coord

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := c.remote(c.sites[0], usersSchema, staticFrag("from users"), "test")
	if err := r.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := r.Next()
	if err != nil || b == nil {
		t.Fatalf("first batch: %v, err %v", b, err)
	}
	if r.done {
		t.Fatal("fixture table fits one batch; grow it so cancellation lands mid-stream")
	}
	cancel()
	if _, err := r.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if r.conn != nil || r.stop != nil {
		t.Fatal("cancelled Next abandoned the live connection or its close hook")
	}
}

// TestPoolReusesIdleClient: fragments run one after the other on one
// site share one pooled client, so the site accepts one connection for
// both; a fragment cancelled mid-stream pools nothing, so the next one
// dials a fresh client.
func TestPoolReusesIdleClient(t *testing.T) {
	d := makeData(52, 4000, 100)
	lf := bootTestFed(t, 1, Config{}, d)
	c, st := lf.Coord, lf.Coord.sites[0]
	conns := func() uint64 { return lf.Servers[0].MetricsSnapshot().ConnsTotal }
	idle := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.idle)
	}
	c.Close() // drop the client the catalog reads pooled
	before := conns()
	runFed(t, lf, "from users")
	runFed(t, lf, "from users")
	if got := conns() - before; got != 1 || idle() != 1 {
		t.Fatalf("two fragments in turn: %d new connections, %d idle clients; want 1 and 1", got, idle())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := c.remote(st, usersSchema, staticFrag("from users"), "test")
	if err := r.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if b, err := r.Next(); err != nil || b == nil || r.done {
		t.Fatalf("first batch: %v, err %v, done %v; want a batch mid-stream", b, err, r.done)
	}
	cancel()
	r.Next()
	r.Close()
	if idle() != 0 {
		t.Fatal("a fragment cancelled mid-stream pooled its client")
	}
	before = conns()
	runFed(t, lf, "from users")
	if got := conns() - before; got != 1 || idle() != 1 {
		t.Fatalf("fragment after a cancelled one: %d new connections, %d idle clients; want 1 and 1", got, idle())
	}
}

// wedgeOp is an operator whose Next blocks until released — a stand-in
// for a gather stuck on an unresponsive site.
type wedgeOp struct {
	entered chan struct{} // closed when Next first blocks
	release chan struct{}
	once    sync.Once
}

func (w *wedgeOp) Open(ctx context.Context) error { return nil }
func (w *wedgeOp) Next() (*table.Batch, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return nil, nil
}
func (w *wedgeOp) Close() error              { return nil }
func (w *wedgeOp) OutSchema() table.Schema   { return table.Schema{Name: "wedge", Cols: []string{"v"}} }
func (w *wedgeOp) Stats() exec.OpStats       { return exec.OpStats{} }
func (w *wedgeOp) Children() []exec.Operator { return nil }
func (w *wedgeOp) String() string            { return "wedge" }

// TestGatherCacheWaiterHonorsOwnCtx: while the first caller's gather is
// wedged on a stuck site, a second caller whose context is already dead
// must return promptly with its own ctx error instead of queueing on
// the cache's mutex behind the network.
func TestGatherCacheWaiterHonorsOwnCtx(t *testing.T) {
	w := &wedgeOp{entered: make(chan struct{}), release: make(chan struct{})}
	g := &gatherCache{
		newOp: func() (exec.Operator, error) { return w, nil },
		ready: make(chan struct{}),
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.rows(context.Background())
	}()
	<-w.entered // the gatherer is now wedged inside its site read

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := g.rows(ctx)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter with a cancelled context is stuck behind the wedged gatherer")
	}

	close(w.release) // unwedge; the gather completes and caches
	wg.Wait()
	if _, err := g.rows(context.Background()); err != nil {
		t.Fatalf("replay after gather completed: %v", err)
	}
}

// TestBootShutdownJoinsServeLoops: Shutdown must not return while any
// site's accept loop is still running — a booted-and-torn-down
// federation leaves the goroutine count where it found it.
func TestBootShutdownJoinsServeLoops(t *testing.T) {
	before := runtime.NumGoroutine()
	d := makeData(53, 60, 30)
	lf, err := BootLocal(context.Background(), 3, Config{}, populateData(d, 3))
	if err != nil {
		t.Fatal(err)
	}
	runFed(t, lf, "from users") // touch every site so sessions exist
	lf.Shutdown(context.Background())
	assertDrained(t, before)
}
