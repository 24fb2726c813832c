// Package fed is the federation subsystem: a coordinator that plans and
// executes one query across N networked xstd sites, each owning hash-
// or range-partitions of the stored tables (ROADMAP "one listener, N
// backend sites").
//
// The coordinator connects to every site, reads its `.schema` catalog
// (columns, row counts, partition specs), and compiles incoming `from …`
// statements with the ordinary single-node planner against a stub
// environment of schema-only tables. The optimized logical tree is then
// split: maximal per-site subtrees — restrict / project / partial
// aggregate / co-located or broadcast join chains — are decompiled back
// into query text and shipped to the owning sites as fragments over the
// xstd wire protocol (batch streaming, wire-encoded rows), while the
// remainder (merge aggregation, sorts, cross-site joins) keeps running
// at the coordinator through the same plan.Compile path via plan.Source
// leaves. Scatter/gather reuses the exec.Gather exchange, so per-site
// cancellation, first-error-wins propagation and bounded buffering are
// the same code paths a local parallel query uses.
//
// Distributed equi-joins choose among four strategies by the byte-cost
// model (ChooseStrategy, cost.go) fed with catalog statistics;
// broadcast ships the small side to every probe site via `.load`
// scratch tables, semijoin ships the distinct probe keys and gathers
// only the matching right rows. Failure semantics: fragments are
// idempotent (read-only over immutable site data, fresh scratch names
// per attempt), so the coordinator retries a fragment that dies before
// its first row with backoff; after first output, or when retries are
// exhausted — a drained or killed site — the query fails cleanly
// through Gather's first-error-wins path.
package fed

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xst/internal/core"
	"xst/internal/metrics"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

// Config describes a federation.
type Config struct {
	// Sites are the xstd addresses, in partition-ordinal order: site i
	// must be the instance whose catalog records partition Site == i.
	Sites []string
	// DialTimeout bounds one site connection attempt (default 5s).
	DialTimeout time.Duration
	// AdminTimeout bounds one admin round trip — .schema at connect,
	// .load during joins (default 10s).
	AdminTimeout time.Duration
	// Retries is how many times a fragment that failed before its first
	// row is re-sent (default 2). Fragments that already streamed rows
	// are never retried: the query fails instead.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// ForceStrategy, when non-empty ("shipall", "broadcast", "semijoin",
	// "colocated"), overrides cost-based join strategy choice — for the
	// shipped-bytes ablation (EXPERIMENTS E15) and tests.
	ForceStrategy string
	// Logf, when set, receives coordinator lifecycle logs.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.AdminTimeout <= 0 {
		c.AdminTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
}

// TableMeta is the coordinator's merged view of one federated table.
type TableMeta struct {
	Name string
	Cols []string
	// SiteRows is the row count on each site.
	SiteRows []int
	// RowBytes is the largest per-site sampled encoded row size.
	RowBytes int
	// Distinct maps column name → per-column distinct count, merged as
	// the max across sites (each site's exact count is a lower bound on
	// the federation-wide count). Empty until the sites have been
	// analyzed; consumers treat a missing entry as unknown.
	Distinct map[string]int
	// Part is the partition spec shared by all sites (nil when the
	// table is unpartitioned — rows live wherever they were inserted).
	Part *PartSpec
}

// Rows is the total row count across sites.
func (m *TableMeta) Rows() int {
	n := 0
	for _, r := range m.SiteRows {
		n += r
	}
	return n
}

// PartSpec is the coordinator-side partition description.
type PartSpec struct {
	// Kind is catalog.PartHash or catalog.PartRange.
	Kind string
	// Col is the partitioning column.
	Col string
	// Bounds are the range split points (len = sites-1), ascending:
	// site i owns Bounds[i-1] <= v < Bounds[i].
	Bounds []core.Value
}

// Coordinator plans and executes queries across the federation.
type Coordinator struct {
	cfg    Config
	sites  []*site
	tables map[string]*TableMeta
	env    *xlang.Env
	// stubs maps the schema-only stub tables bound into env back to
	// their names, so the splitter recognizes plan.Scan leaves.
	stubs map[*table.Table]string
	seq   atomic.Uint64
	m     Metrics
}

// site is one backend with its connection pool and per-site counters.
type site struct {
	id   int
	addr string

	mu   sync.Mutex
	idle []*siteConn

	down atomic.Bool
	// lastLatUS is the most recent fragment's wall time in microseconds
	// (__sys.sites' latency column).
	lastLatUS atomic.Int64

	bytes   *metrics.Counter
	rows    *metrics.Counter
	frags   *metrics.Counter
	errs    *metrics.Counter
	retries *metrics.Counter
}

// Metrics are the coordinator's registry series (xstd_fed_*).
type Metrics struct {
	Fragments    metrics.Counter
	FragErrors   metrics.Counter
	Retries      metrics.Counter
	BytesShipped metrics.Counter
	RowsShipped  metrics.Counter
	SitesUp      metrics.Gauge
	FragLatency  metrics.Histogram

	siteBytes   []metrics.Counter
	siteRows    []metrics.Counter
	siteFrags   []metrics.Counter
	siteErrs    []metrics.Counter
	siteRetries []metrics.Counter
}

// Connect dials every site, reads its catalog, and validates that the
// federation is coherent: every table present on all sites with the
// same columns, partition specs (when present) agreeing in kind, column
// and site count, with each site holding its own ordinal.
func Connect(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg.fill()
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("fed: no sites configured")
	}
	c := &Coordinator{cfg: cfg, tables: map[string]*TableMeta{}}
	c.m.siteBytes = make([]metrics.Counter, len(cfg.Sites))
	c.m.siteRows = make([]metrics.Counter, len(cfg.Sites))
	c.m.siteFrags = make([]metrics.Counter, len(cfg.Sites))
	c.m.siteErrs = make([]metrics.Counter, len(cfg.Sites))
	c.m.siteRetries = make([]metrics.Counter, len(cfg.Sites))
	perSite := make([]map[string]server.TableInfo, len(cfg.Sites))
	for i, addr := range cfg.Sites {
		st := &site{
			id: i, addr: addr,
			bytes: &c.m.siteBytes[i], rows: &c.m.siteRows[i],
			frags: &c.m.siteFrags[i], errs: &c.m.siteErrs[i],
			retries: &c.m.siteRetries[i],
		}
		c.sites = append(c.sites, st)
		infos, err := c.fetchSchema(ctx, st)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("fed: site %d (%s): %w", i, addr, err)
		}
		perSite[i] = map[string]server.TableInfo{}
		for _, ti := range infos {
			perSite[i][ti.Name] = ti
		}
	}
	if err := c.mergeCatalogs(perSite); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.buildStubEnv(); err != nil {
		c.Close()
		return nil, err
	}
	c.bindSysViews()
	c.m.SitesUp.Set(int64(len(c.sites)))
	if cfg.Logf != nil {
		cfg.Logf("fed: %d sites, %d tables", len(c.sites), len(c.tables))
	}
	return c, nil
}

// fetchSchema reads one site's `.schema` catalog over a fresh pooled
// connection.
func (c *Coordinator) fetchSchema(ctx context.Context, st *site) ([]server.TableInfo, error) {
	conn, err := c.getConn(ctx, st)
	if err != nil {
		return nil, err
	}
	resp, err := c.admin(ctx, st, conn, server.Request{Stmt: ".schema"})
	if err != nil {
		conn.close()
		return nil, err
	}
	st.put(conn)
	var infos []server.TableInfo
	if err := json.Unmarshal([]byte(resp.Result), &infos); err != nil {
		return nil, fmt.Errorf("bad .schema payload: %w", err)
	}
	return infos, nil
}

// mergeCatalogs folds the per-site .schema snapshots into TableMetas.
func (c *Coordinator) mergeCatalogs(perSite []map[string]server.TableInfo) error {
	names := map[string]bool{}
	for _, m := range perSite {
		for n := range m {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		meta := &TableMeta{Name: name, SiteRows: make([]int, len(c.sites))}
		for i, m := range perSite {
			ti, ok := m[name]
			if !ok {
				return fmt.Errorf("fed: table %q missing on site %d", name, i)
			}
			if meta.Cols == nil {
				meta.Cols = ti.Cols
			} else if !equalCols(meta.Cols, ti.Cols) {
				return fmt.Errorf("fed: table %q schema differs on site %d: %v vs %v",
					name, i, ti.Cols, meta.Cols)
			}
			meta.SiteRows[i] = ti.Rows
			if ti.RowBytes > meta.RowBytes {
				meta.RowBytes = ti.RowBytes
			}
			for col, d := range ti.Distinct {
				if meta.Distinct == nil {
					meta.Distinct = map[string]int{}
				}
				if d > meta.Distinct[col] {
					meta.Distinct[col] = d
				}
			}
			if ti.Part != nil {
				spec, err := decodePartInfo(ti.Part)
				if err != nil {
					return fmt.Errorf("fed: table %q site %d: %w", name, i, err)
				}
				if ti.Part.Sites != len(c.sites) {
					return fmt.Errorf("fed: table %q partitioned over %d sites, federation has %d",
						name, ti.Part.Sites, len(c.sites))
				}
				if ti.Part.Site != i {
					return fmt.Errorf("fed: table %q on site %d claims partition ordinal %d",
						name, i, ti.Part.Site)
				}
				if meta.Part == nil {
					meta.Part = spec
				} else if meta.Part.Kind != spec.Kind || meta.Part.Col != spec.Col {
					return fmt.Errorf("fed: table %q partition spec differs across sites", name)
				}
			}
		}
		c.tables[name] = meta
	}
	return nil
}

func decodePartInfo(pi *server.PartInfo) (*PartSpec, error) {
	spec := &PartSpec{Kind: pi.Kind, Col: pi.Col}
	for _, b64 := range pi.Bounds {
		raw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return nil, fmt.Errorf("bad partition bound: %w", err)
		}
		v, _, err := core.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("bad partition bound: %w", err)
		}
		spec.Bounds = append(spec.Bounds, v)
	}
	return spec, nil
}

func equalCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildStubEnv binds a schema-only, zero-row stand-in for every
// federated table into a fresh environment, so the ordinary single-node
// parser and optimizer compile statements against the federation
// catalog.
func (c *Coordinator) buildStubEnv() error {
	pool := store.NewBufferPool(store.NewMemPager(), 16)
	env := xlang.NewEnv()
	stubs := map[*table.Table]string{}
	for name, meta := range c.tables {
		t, err := table.Create(pool, table.Schema{Name: name, Cols: meta.Cols})
		if err != nil {
			return fmt.Errorf("fed: stub table %q: %w", name, err)
		}
		env.BindTable(name, t)
		stubs[t] = name
	}
	c.env = env
	c.stubs = stubs
	return nil
}

// RegisterMetrics publishes the coordinator's xstd_fed_* series into a
// registry (typically the front server's).
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) error {
	type counter struct {
		name, help string
		c          *metrics.Counter
	}
	counters := []counter{
		{"xstd_fed_fragments_total", "Fragments completed across all sites.", &c.m.Fragments},
		{"xstd_fed_fragment_errors_total", "Fragment attempts that failed.", &c.m.FragErrors},
		{"xstd_fed_retries_total", "Fragment retry attempts.", &c.m.Retries},
		{"xstd_fed_bytes_shipped_total", "Wire bytes moved between coordinator and sites.", &c.m.BytesShipped},
		{"xstd_fed_rows_shipped_total", "Rows moved between coordinator and sites.", &c.m.RowsShipped},
	}
	for i := range c.sites {
		counters = append(counters,
			counter{fmt.Sprintf("xstd_fed_site%d_bytes_shipped_total", i),
				fmt.Sprintf("Wire bytes exchanged with site %d.", i), &c.m.siteBytes[i]},
			counter{fmt.Sprintf("xstd_fed_site%d_rows_shipped_total", i),
				fmt.Sprintf("Rows exchanged with site %d.", i), &c.m.siteRows[i]},
			counter{fmt.Sprintf("xstd_fed_site%d_fragments_total", i),
				fmt.Sprintf("Fragments completed by site %d.", i), &c.m.siteFrags[i]},
			counter{fmt.Sprintf("xstd_fed_site%d_fragment_errors_total", i),
				fmt.Sprintf("Fragment attempts failed on site %d.", i), &c.m.siteErrs[i]},
			counter{fmt.Sprintf("xstd_fed_site%d_retries_total", i),
				fmt.Sprintf("Fragment retries against site %d.", i), &c.m.siteRetries[i]},
		)
	}
	for _, e := range counters {
		if err := reg.RegisterCounter(e.name, e.help, e.c); err != nil {
			return err
		}
	}
	if err := reg.RegisterGauge("xstd_fed_sites_up",
		"Sites whose last fragment succeeded (all sites at connect).", &c.m.SitesUp); err != nil {
		return err
	}
	return reg.RegisterHistogram("xstd_fed_fragment_latency_seconds",
		"Per-fragment wall time, dial to final response.", &c.m.FragLatency)
}

// Metrics exposes the coordinator counters for tests and reports.
func (c *Coordinator) Metrics() *Metrics { return &c.m }

// Tables lists the federated catalog (sorted by name).
func (c *Coordinator) Tables() []*TableMeta {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*TableMeta, len(names))
	for i, n := range names {
		out[i] = c.tables[n]
	}
	return out
}

// Sites reports the federation size.
func (c *Coordinator) Sites() int { return len(c.sites) }

// Close drops all pooled site connections.
func (c *Coordinator) Close() error {
	for _, st := range c.sites {
		st.mu.Lock()
		idle := st.idle
		st.idle = nil
		st.mu.Unlock()
		for _, conn := range idle {
			conn.close()
		}
	}
	return nil
}

// markSite records a fragment outcome for site-health accounting: the
// sites-up gauge counts sites whose most recent fragment succeeded.
func (c *Coordinator) markSite(st *site, ok bool) {
	if st.down.Swap(!ok) == !ok {
		return
	}
	up := int64(0)
	for _, s := range c.sites {
		if !s.down.Load() {
			up++
		}
	}
	c.m.SitesUp.Set(up)
}
