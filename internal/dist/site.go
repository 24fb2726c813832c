// Package dist simulates the distributed backend the 1977 paper targets:
// a cluster of storage sites, each owning a horizontal partition of every
// table in its own buffer pool, and a coordinator that executes XSP
// queries across them. The network is simulated by counting every byte
// and message that crosses site boundaries — the quantity distributed
// query strategies optimize — so experiments can compare shipping whole
// partitions against semijoin-reduced shipping (experiment E11) without
// real sockets. All execution is set-at-a-time: sites exchange *sets* of
// rows, never single records, which is precisely the paper's thesis
// applied to distribution. The join strategies and their byte-cost
// model belong to the real coordinator (fed.Strategy,
// fed.ChooseStrategy); this simulator measures what they predict.
package dist

import (
	"context"
	"fmt"
	"sync"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
)

// Site is one storage node: a buffer pool and the local partitions.
type Site struct {
	ID     int
	Pool   *store.BufferPool
	tables map[string]*table.Table
}

// NewSite builds a site with its own pool.
func NewSite(id, frames int) *Site {
	return &Site{
		ID:     id,
		Pool:   store.NewBufferPool(store.NewMemPager(), frames),
		tables: map[string]*table.Table{},
	}
}

// CreateTable makes the local partition of a table.
func (s *Site) CreateTable(schema table.Schema) (*table.Table, error) {
	if _, ok := s.tables[schema.Name]; ok {
		return nil, fmt.Errorf("dist: site %d already has table %q", s.ID, schema.Name)
	}
	t, err := table.Create(s.Pool, schema)
	if err != nil {
		return nil, err
	}
	s.tables[schema.Name] = t
	return t, nil
}

// Table returns the local partition.
func (s *Site) Table(name string) (*table.Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// NetStats counts simulated network traffic.
type NetStats struct {
	Messages uint64
	Bytes    uint64
}

// Network is the simulated interconnect: every row set shipped between
// sites passes through Ship, which serializes rows with the table codec
// to measure realistic byte volumes.
type Network struct {
	mu    sync.Mutex
	stats NetStats
}

// Ship accounts one transfer of rows from one site to another and
// returns the same rows (zero-copy locally; the cost model is the
// point). A nil/empty shipment still costs one message.
func (n *Network) Ship(rows []table.Row) []table.Row {
	bytes := uint64(0)
	var buf []byte
	for _, r := range rows {
		buf = table.EncodeRow(buf[:0], r)
		bytes += uint64(len(buf))
	}
	n.mu.Lock()
	n.stats.Messages++
	n.stats.Bytes += bytes
	n.mu.Unlock()
	return rows
}

// ShipKeys accounts a transfer of bare key values (for semijoins).
func (n *Network) ShipKeys(keys []core.Value) []core.Value {
	bytes := uint64(0)
	var buf []byte
	for _, k := range keys {
		buf = core.AppendEncode(buf[:0], k)
		bytes += uint64(len(buf))
	}
	n.mu.Lock()
	n.stats.Messages++
	n.stats.Bytes += bytes
	n.mu.Unlock()
	return keys
}

// Stats snapshots the counters.
func (n *Network) Stats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Reset zeroes the counters.
func (n *Network) Reset() {
	n.mu.Lock()
	n.stats = NetStats{}
	n.mu.Unlock()
}

// Cluster is a set of sites plus the coordinator's network.
type Cluster struct {
	Sites []*Site
	Net   *Network
}

// NewCluster builds n sites with the given per-site frame budget.
func NewCluster(n, frames int) *Cluster {
	c := &Cluster{Net: &Network{}}
	for i := 0; i < n; i++ {
		c.Sites = append(c.Sites, NewSite(i, frames))
	}
	return c
}

// CreateTable creates the table's partition on every site.
func (c *Cluster) CreateTable(schema table.Schema) error {
	for _, s := range c.Sites {
		if _, err := s.CreateTable(schema); err != nil {
			return err
		}
	}
	return nil
}

// InsertHash routes a row to the site owning its partition key (hash of
// column keyCol).
func (c *Cluster) InsertHash(name string, keyCol int, r table.Row) error {
	site := c.Sites[int(core.Digest(r[keyCol])%uint64(len(c.Sites)))]
	t, ok := site.Table(name)
	if !ok {
		return fmt.Errorf("dist: no table %q on site %d", name, site.ID)
	}
	_, err := t.Insert(r)
	return err
}

// InsertRoundRobin spreads rows evenly regardless of content.
func (c *Cluster) InsertRoundRobin(name string, i int, r table.Row) error {
	site := c.Sites[i%len(c.Sites)]
	t, ok := site.Table(name)
	if !ok {
		return fmt.Errorf("dist: no table %q on site %d", name, site.ID)
	}
	_, err := t.Insert(r)
	return err
}

// Count sums the partition counts.
func (c *Cluster) Count(name string) int {
	n := 0
	for _, s := range c.Sites {
		if t, ok := s.Table(name); ok {
			n += t.Count()
		}
	}
	return n
}

// partitions returns the local partitions of a table, one per site.
func (c *Cluster) partitions(name string) ([]*table.Table, error) {
	out := make([]*table.Table, len(c.Sites))
	for i, s := range c.Sites {
		t, ok := s.Table(name)
		if !ok {
			return nil, fmt.Errorf("dist: no table %q on site %d", name, s.ID)
		}
		out[i] = t
	}
	return out, nil
}

// ScatterRestrict runs a restriction on every site in parallel and
// gathers the shipped results at the coordinator — the distributed form
// of the σ-Restriction.
func (c *Cluster) ScatterRestrict(ctx context.Context, name string, pred exec.Pred, label string) ([]table.Row, error) {
	parts, err := c.partitions(name)
	if err != nil {
		return nil, err
	}
	type resp struct {
		rows []table.Row
		err  error
	}
	ch := make(chan resp, len(parts))
	for _, p := range parts {
		go func(t *table.Table) {
			rows, err := collectLocal(ctx, t, []exec.Op{&exec.Restrict{Pred: pred, Name: label}})
			ch <- resp{rows: rows, err: err}
		}(p)
	}
	var out []table.Row
	for range parts {
		r := <-ch
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, c.Net.Ship(r.rows)...)
	}
	return out, nil
}
