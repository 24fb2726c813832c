package fed

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/table"
)

// TestConnectReadsSiteCatalogs: the coordinator's merged catalog, read
// through every site's __sys.tables and __sys.stats, matches what the
// site databases hold — per-site row counts, the largest sampled row
// size, the max-merged distinct counts of an analyzed table, and the
// partition spec with its range bounds.
func TestConnectReadsSiteCatalogs(t *testing.T) {
	const n = 3
	d := makeData(43, 90, 120)
	lf, err := BootLocal(context.Background(), n, Config{}, func(dbs []*catalog.Database) error {
		if err := populateData(d, n)(dbs); err != nil {
			return err
		}
		for _, db := range dbs {
			if _, err := db.Analyze(context.Background()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.Shutdown(context.Background()) })

	parts := map[string]*PartSpec{
		"users":    {Kind: catalog.PartHash, Col: "id"},
		"orders":   {Kind: catalog.PartRange, Col: "oid", Bounds: orderBounds(n, len(d.orders))},
		"profiles": {Kind: catalog.PartHash, Col: "pid"},
		"tags":     nil,
	}
	got := lf.Coord.Tables()
	if len(got) != len(parts) {
		t.Fatalf("coordinator has %d tables, want %d", len(got), len(parts))
	}
	for _, meta := range got {
		want := &TableMeta{Name: meta.Name, SiteRows: make([]int, n), Part: parts[meta.Name]}
		for i, db := range lf.DBs {
			tab, err := db.Table(meta.Name)
			if err != nil {
				t.Fatal(err)
			}
			want.Cols = tab.Schema().Cols
			want.SiteRows[i] = tab.Count()
			want.RowBytes = max(want.RowBytes, firstPageRowBytes(t, tab))
			if ts, ok := db.Stats(meta.Name); ok {
				if want.Distinct == nil {
					want.Distinct = map[string]int{}
				}
				for c, cs := range ts.Columns {
					col := want.Cols[c]
					want.Distinct[col] = max(want.Distinct[col], cs.Distinct)
				}
			}
		}
		if want.Distinct == nil || want.RowBytes == 0 {
			t.Fatalf("%s: fixture lacks statistics or rows", meta.Name)
		}
		if !reflect.DeepEqual(meta, want) {
			t.Errorf("%s: coordinator meta\n%+v\nwant\n%+v", meta.Name, *meta, *want)
		}
	}
}

// firstPageRowBytes averages the encoded rows of tab's first heap page.
func firstPageRowBytes(t *testing.T, tab *table.Table) int {
	t.Helper()
	_, b, ok, err := tab.NewBatchCursor(nil).Next()
	if err != nil || !ok || b.Len == 0 {
		t.Fatalf("%s: no first page (%v)", tab.Schema().Name, err)
	}
	rows, _ := b.AppendRows(nil, nil)
	total := 0
	for _, r := range rows {
		total += len(table.EncodeRow(nil, r))
	}
	return total / len(rows)
}

// TestConnectRejectsIncoherentSites: Connect refuses a federation whose
// sites disagree on a table — a missing table, different columns, a
// partition one site lacks or records differently (kind, column, range
// bounds), a partition over the wrong number of sites, or a site at
// another's ordinal. Accepting any of them would let the coordinator
// prune or merge rows by a rule some site does not follow.
func TestConnectRejectsIncoherentSites(t *testing.T) {
	sch := table.Schema{Name: "t", Cols: []string{"k", "v"}}
	hash := func(site, sites int) *catalog.Partition {
		return &catalog.Partition{Kind: catalog.PartHash, Col: "k", Site: site, Sites: sites}
	}
	rng := func(site int, bounds ...int) *catalog.Partition {
		p := &catalog.Partition{Kind: catalog.PartRange, Col: "k", Site: site, Sites: len(bounds) + 1}
		for _, b := range bounds {
			p.Bounds = append(p.Bounds, core.Int(b))
		}
		return p
	}
	type siteSpec struct {
		sch  *table.Schema // nil: the table is absent
		part *catalog.Partition
	}
	other := table.Schema{Name: "t", Cols: []string{"k", "w"}}
	for _, tc := range []struct {
		name  string
		sites []siteSpec
		want  string
	}{
		{"missing table", []siteSpec{{&sch, nil}, {nil, nil}}, `table "t" missing on site 1`},
		{"column mismatch", []siteSpec{{&sch, nil}, {&other, nil}}, `table "t" schema differs on site 1`},
		{"partition on one site only", []siteSpec{{&sch, nil}, {&sch, hash(1, 2)}}, `table "t" partition spec differs on site 1`},
		{"partition missing on a later site", []siteSpec{{&sch, hash(0, 2)}, {&sch, nil}}, `table "t" partition spec differs on site 1`},
		{"partition column", []siteSpec{{&sch, hash(0, 2)}, {&sch, &catalog.Partition{Kind: catalog.PartHash, Col: "v", Site: 1, Sites: 2}}}, `table "t" partition spec differs on site 1`},
		{"partition kind", []siteSpec{{&sch, hash(0, 2)}, {&sch, rng(1, 5)}}, `table "t" partition spec differs on site 1`},
		{"range bounds", []siteSpec{{&sch, rng(0, 5, 10)}, {&sch, rng(1, 5, 10)}, {&sch, rng(2, 5, 20)}}, `table "t" partition spec differs on site 2`},
		{"site count", []siteSpec{{&sch, hash(0, 3)}, {&sch, hash(1, 3)}}, `table "t" partitioned over 3 sites, federation has 2`},
		{"wrong ordinal", []siteSpec{{&sch, hash(1, 2)}, {&sch, hash(0, 2)}}, `table "t" on site 0 claims partition ordinal 1`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lf, err := BootLocal(context.Background(), len(tc.sites), Config{}, func(dbs []*catalog.Database) error {
				for i, s := range tc.sites {
					if s.sch == nil {
						continue
					}
					if _, err := dbs[i].CreateTable(*s.sch); err != nil {
						return err
					}
					if s.part != nil {
						if err := dbs[i].SetPartition(s.sch.Name, *s.part); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err == nil {
				lf.Shutdown(context.Background())
				t.Fatalf("Connect accepted the federation, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Connect: %v, want %q", err, tc.want)
			}
		})
	}
}
