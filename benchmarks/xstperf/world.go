package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/workload"
)

// world is one booted instance of a workload: the generated data and
// its oracle, the database, the in-process server, and the dialled
// connections with their statement streams.
type world struct {
	sp   *spec
	seed uint64
	data *dataset
	or   *oracle

	dir      string // temp dir holding the page and log files ("" on a MemPager)
	db       *catalog.Database
	log      *wal.FileLog
	srv      *server.Server
	addr     string
	served   chan error // Serve's return value
	clients  []*server.Client
	streams  []*stream
	usersSet *core.Set // users as the server binds it (set_algebra direct calls)
	f, g, ch *core.Set
}

func (w *world) table(name string) *table.Table {
	t, err := w.db.Table(name)
	if err != nil {
		panic(err) // a template names a table its spec did not create
	}
	return t
}

func (w *world) pagePath() string { return filepath.Join(w.dir, "xstperf.pages") }
func (w *world) logPath() string  { return filepath.Join(w.dir, "xstperf.wal") }

// setup generates the data from the seed, loads it, builds indexes and
// statistics, boots the server on 127.0.0.1:0, dials conns connections,
// binds their session variables and runs the discarded warm-up, which has
// a fixed length. On error everything already started is torn down.
func setup(sp *spec, seed uint64, conns int, tmpRoot string, warm time.Duration) (w *world, err error) {
	w = &world{sp: sp, seed: seed}
	defer func() {
		if err != nil {
			err = errors.Join(err, w.teardown())
			w = nil
		}
	}()
	w.data = generate(sp, seed)
	w.or = newOracle(sp, w.data)
	if err := w.openDB(tmpRoot); err != nil {
		return w, err
	}
	if err := w.load(); err != nil {
		return w, err
	}
	if w.srv, err = server.New(server.Config{DB: w.db}); err != nil {
		return w, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, err
	}
	w.addr = lis.Addr().String()
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(lis) }()
	for i := 0; i < conns; i++ {
		c, err := server.Dial(w.addr)
		if err != nil {
			return w, err
		}
		w.clients = append(w.clients, c)
		w.streams = append(w.streams, newStream(sp, seed, i))
		if err := w.bindSession(c); err != nil {
			return w, err
		}
	}
	if sp.pairs > 0 {
		w.f, w.g, w.ch = pairSet(w.data.f), pairSet(w.data.g), pairSet(w.data.ch)
		if w.usersSet, err = w.table("users").ToXST(); err != nil {
			return w, err
		}
	}
	if seg := w.runLoop(len(w.clients), warm, false); seg.failed > 0 {
		return w, fmt.Errorf("warm-up: %d of %d statements failed: %s", seg.failed, seg.attempted, seg.firstFailure)
	}
	return w, nil
}

func (w *world) openDB(tmpRoot string) (err error) {
	if w.sp.storage == "mem" {
		w.db, err = catalog.Create(store.NewMemPager(), w.sp.frames)
		return err
	}
	if w.dir, err = os.MkdirTemp(tmpRoot, "xstperf-"); err != nil {
		return err
	}
	pager, err := store.OpenFilePager(w.pagePath())
	if err != nil {
		return err
	}
	if w.sp.storage == "file" {
		if w.db, err = catalog.Create(pager, w.sp.frames); err != nil {
			pager.Close()
		}
		return err
	}
	if w.log, err = wal.OpenFileLog(w.logPath()); err != nil {
		pager.Close()
		return err
	}
	if w.db, err = catalog.CreateDurable(pager, w.log, w.sp.frames); err != nil {
		pager.Close()
	}
	return err
}

// load creates and fills the tables, declares the indexes the templates
// rely on, and collects statistics.
func (w *world) load() error {
	ctx := context.Background()
	for _, t := range []struct {
		schema table.Schema
		rows   []table.Row
		idx    string // index kind on id
	}{
		{workload.UsersSchema(), w.data.userRows(), catalog.IndexHash},
		{workload.OrdersSchema(), w.data.orderRows(), catalog.IndexBTree},
		{workload.EventsSchema(), eventRows(0, w.data.events, 0), catalog.IndexHash},
	} {
		if len(t.rows) == 0 {
			continue
		}
		if _, err := w.db.CreateTable(t.schema); err != nil {
			return err
		}
		if err := w.db.Load(ctx, t.schema.Name, t.rows); err != nil {
			return err
		}
		if _, err := w.db.CreateIndex(ctx, t.schema.Name, "id", t.idx); err != nil {
			return err
		}
	}
	_, err := w.db.Analyze(ctx)
	return err
}

// bindSession binds the set_algebra operands in one connection's session.
func (w *world) bindSession(c *server.Client) error {
	if w.sp.pairs == 0 {
		return nil
	}
	for name, ps := range map[string][][2]int64{"f": w.data.f, "g": w.data.g, "ch": w.data.ch} {
		if _, err := c.Eval(name + " := " + pairLiteral(ps)); err != nil {
			return fmt.Errorf("bind %s: %w", name, err)
		}
	}
	return nil
}

// teardown closes the connections, shuts the server down and waits for
// Serve to return, closes the database and removes the temp dir. It is
// safe on a partly set-up world.
func (w *world) teardown() error {
	var errs []error
	for _, c := range w.clients {
		c.Close()
	}
	if w.srv != nil && w.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, w.srv.Shutdown(ctx))
		cancel()
		if err := <-w.served; !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
	}
	if w.db != nil {
		errs = append(errs, w.db.Close())
	}
	if w.log != nil {
		errs = append(errs, w.log.Close())
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return w.gone()
}

// gone reports what a torn-down world left behind: a listener that
// still accepts, or its temp dir.
func (w *world) gone() error {
	if w.addr != "" {
		if c, err := net.DialTimeout("tcp", w.addr, time.Second); err == nil {
			c.Close()
			return fmt.Errorf("listener %s still accepts after shutdown", w.addr)
		}
	}
	if w.dir != "" {
		if _, err := os.Stat(w.dir); err == nil {
			return fmt.Errorf("temp dir %s left behind", w.dir)
		}
	}
	return nil
}
