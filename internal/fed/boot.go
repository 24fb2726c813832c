package fed

import (
	"context"
	"fmt"
	"net"
	"sync"

	"xst/internal/catalog"
	"xst/internal/metrics"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
)

// LocalFed is an in-process federation: N xstd servers over in-memory
// databases on loopback listeners, plus a connected coordinator — the
// harness behind the differential equivalence suite, the shipping
// experiments (E11, E15) and examples/distributed.
type LocalFed struct {
	Coord *Coordinator
	// Registry carries the coordinator's xstd_fed_* series.
	Registry *metrics.Registry
	Servers  []*server.Server
	Addrs    []string
	DBs      []*catalog.Database

	// serveWG joins the per-site Serve goroutines: Shutdown returns only
	// after every accept loop has actually exited, so a test that boots
	// and tears down a federation leaves no goroutine behind.
	serveWG sync.WaitGroup
}

// BootLocal builds n in-memory site databases, hands them to populate
// for sharded table creation (see CreateSharded), serves each behind a
// loopback xstd, and connects a coordinator. cfg.Sites is filled in by
// the boot; other Config fields pass through.
func BootLocal(ctx context.Context, n int, cfg Config, populate func(dbs []*catalog.Database) error) (*LocalFed, error) {
	lf := &LocalFed{Registry: metrics.NewRegistry()}
	fail := func(err error) (*LocalFed, error) {
		kill, cancel := context.WithCancel(ctx)
		cancel()
		lf.Shutdown(kill)
		return nil, err
	}
	for i := 0; i < n; i++ {
		db, err := catalog.Create(store.NewMemPager(), 512)
		if err != nil {
			return fail(fmt.Errorf("fed: site %d database: %w", i, err))
		}
		lf.DBs = append(lf.DBs, db)
	}
	if populate != nil {
		if err := populate(lf.DBs); err != nil {
			return fail(err)
		}
	}
	for i, db := range lf.DBs {
		srv, err := server.New(server.Config{DB: db, Logf: cfg.Logf})
		if err != nil {
			return fail(fmt.Errorf("fed: site %d server: %w", i, err))
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("fed: site %d listener: %w", i, err))
		}
		lf.Servers = append(lf.Servers, srv)
		lf.Addrs = append(lf.Addrs, l.Addr().String())
		lf.serveWG.Add(1)
		go func() {
			defer lf.serveWG.Done()
			srv.Serve(l)
		}()
	}
	cfg.Sites = lf.Addrs
	coord, err := Connect(ctx, cfg)
	if err != nil {
		return fail(err)
	}
	lf.Coord = coord
	if err := coord.RegisterMetrics(lf.Registry); err != nil {
		return fail(err)
	}
	return lf, nil
}

// KillSite force-stops one site: pass an already-cancelled context to
// sever its connections immediately (mid-query failure injection), or a
// live one to drain gracefully.
func (lf *LocalFed) KillSite(ctx context.Context, i int) error {
	return lf.Servers[i].Shutdown(ctx)
}

// Shutdown stops the whole federation: coordinator pool first, then the
// site servers under ctx's drain budget, then the databases.
func (lf *LocalFed) Shutdown(ctx context.Context) {
	if lf.Coord != nil {
		lf.Coord.Close()
	}
	for _, srv := range lf.Servers {
		srv.Shutdown(ctx)
	}
	lf.serveWG.Wait()
	for _, db := range lf.DBs {
		db.Close()
	}
}

// CreateSharded creates one table on every site database and routes the
// rows: by the partition rule when part is non-nil (its Site/Sites
// fields are filled per database), round-robin otherwise. This is the
// placement invariant the federation relies on — every row on exactly
// one site.
func CreateSharded(dbs []*catalog.Database, sch table.Schema, part *catalog.Partition, rows []table.Row) error {
	n := len(dbs)
	tabs := make([]*table.Table, n)
	col := -1
	if part != nil {
		if col = sch.Col(part.Col); col < 0 {
			return fmt.Errorf("fed: partition column %q not in %q", part.Col, sch.Name)
		}
	}
	for i, db := range dbs {
		t, err := db.CreateTable(sch)
		if err != nil {
			return err
		}
		if part != nil {
			p := *part
			p.Site = i
			p.Sites = n
			if err := db.SetPartition(sch.Name, p); err != nil {
				return err
			}
		}
		tabs[i] = t
	}
	for i, r := range rows {
		site := i % n
		if part != nil {
			switch part.Kind {
			case catalog.PartHash:
				site = HashSite(r[col], n)
			case catalog.PartRange:
				site = RangeSite(r[col], part.Bounds)
			}
		}
		if _, err := tabs[site].Insert(r); err != nil {
			return err
		}
	}
	return nil
}
