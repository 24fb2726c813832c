// Package workload generates the deterministic synthetic datasets the
// experiments run on: uniform and Zipf-skewed user/order tables shaped
// like the order-entry workloads the 1977 paper's motivation describes
// (very large files of fixed-shape records), plus relation generators
// for the symbolic experiments. Everything flows from an explicit seed.
package workload

import (
	"fmt"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Seed uint64
	// Users is the row count of the users table.
	Users int
	// Orders is the row count of the orders table.
	Orders int
	// Cities bounds the city attribute's cardinality.
	Cities int
	// Skew is the Zipf exponent for order→user references (0 = uniform).
	Skew float64
}

// DefaultSpec is a laptop-scale dataset: 10k users, 50k orders.
func DefaultSpec() Spec {
	return Spec{Seed: 42, Users: 10_000, Orders: 50_000, Cities: 50, Skew: 0}
}

// Dataset holds the generated tables, all in one buffer pool.
type Dataset struct {
	Pool   *store.BufferPool
	Users  *table.Table // (id int, city str, score int)
	Orders *table.Table // (id int, uid int, amount int)
}

// UsersSchema returns the users schema.
func UsersSchema() table.Schema {
	return table.Schema{Name: "users", Cols: []string{"id", "city", "score"}}
}

// OrdersSchema returns the orders schema.
func OrdersSchema() table.Schema {
	return table.Schema{Name: "orders", Cols: []string{"id", "uid", "amount"}}
}

// Build materializes the dataset into a fresh pool with the given frame
// budget (frames <= 0 selects a default of 256 frames ≈ 1 MiB).
func Build(spec Spec, frames int) (*Dataset, error) {
	if frames <= 0 {
		frames = 256
	}
	pool := store.NewBufferPool(store.NewMemPager(), frames)
	r := xtest.NewRand(spec.Seed)

	users, err := table.Create(pool, UsersSchema())
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Users; i++ {
		row := table.Row{
			core.Int(i),
			core.Str(fmt.Sprintf("city-%03d", r.Intn(spec.Cities))),
			core.Int(r.Intn(100)),
		}
		if _, err := users.Insert(row); err != nil {
			return nil, err
		}
	}

	orders, err := table.Create(pool, OrdersSchema())
	if err != nil {
		return nil, err
	}
	var zipf *xtest.Zipf
	if spec.Skew > 0 {
		zipf = xtest.NewZipf(r, spec.Users, spec.Skew)
	}
	for i := 0; i < spec.Orders; i++ {
		uid := 0
		if zipf != nil {
			uid = zipf.Next()
		} else if spec.Users > 0 {
			uid = r.Intn(spec.Users)
		}
		row := table.Row{core.Int(i), core.Int(uid), core.Int(r.Intn(1000))}
		if _, err := orders.Insert(row); err != nil {
			return nil, err
		}
	}
	return &Dataset{Pool: pool, Users: users.Table(), Orders: orders.Table()}, nil
}

// SelectivityValue returns a city value whose selectivity is roughly
// 1/cities — the standard selection target.
func SelectivityValue(citiesUsed int) core.Value {
	return core.Str(fmt.Sprintf("city-%03d", citiesUsed/2))
}

// RandomChain generates k composable function carriers (sets of pairs
// over a value domain of the given size) for the composition experiment:
// stage i maps domain values to domain values, so chains never dead-end.
func RandomChain(seed uint64, k, domain int) []*core.Set {
	r := xtest.NewRand(seed)
	out := make([]*core.Set, k)
	for i := range out {
		b := core.NewBuilder(domain)
		for d := 0; d < domain; d++ {
			b.AddClassical(core.Pair(core.Int(d), core.Int(r.Intn(domain))))
		}
		out[i] = b.Set()
	}
	return out
}

// MixedSpec describes the E17 mixed read/write stream: a table seeded
// with Initial rows, then Writers goroutines committing Batches batches
// of Batch rows each while Readers goroutines run full snapshot scans.
type MixedSpec struct {
	Seed    uint64
	Initial int
	Batch   int
	Batches int
	Readers int
	Writers int
}

// DefaultMixedSpec is the full-scale E17 shape; Quick shrinks it to CI
// scale.
func DefaultMixedSpec(quick bool) MixedSpec {
	if quick {
		return MixedSpec{Seed: 42, Initial: 2_000, Batch: 200, Batches: 12, Readers: 3, Writers: 2}
	}
	return MixedSpec{Seed: 42, Initial: 20_000, Batch: 500, Batches: 40, Readers: 4, Writers: 2}
}

// EventsSchema returns the append-stream schema E17/E18 commit into.
func EventsSchema() table.Schema {
	return table.Schema{Name: "events", Cols: []string{"id", "batch", "val"}}
}

// EventRows generates batch b of the event stream: n rows (id, b, val)
// with ids unique across batches and values deterministic from the
// seed, so any committed prefix is checkable by counting.
func EventRows(seed uint64, b, n int) []table.Row {
	r := xtest.NewRand(seed + uint64(b)*1_000_003)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(b*n + i)), core.Int(int64(b)), core.Int(int64(r.Intn(1000)))}
	}
	return rows
}

// LookupKeys returns n key values drawn from [0, users) with the given
// skew, for the point-lookup mixes of experiment E10.
func LookupKeys(seed uint64, n, users int, skew float64) []core.Value {
	r := xtest.NewRand(seed)
	out := make([]core.Value, n)
	var zipf *xtest.Zipf
	if skew > 0 {
		zipf = xtest.NewZipf(r, users, skew)
	}
	for i := range out {
		if zipf != nil {
			out[i] = core.Int(zipf.Next())
		} else {
			out[i] = core.Int(r.Intn(users))
		}
	}
	return out
}
