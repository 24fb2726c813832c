package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/fed"
	"xst/internal/table"
)

// E15FederatedShipping is the shipped-bytes ablation over real sockets:
// the same distributed join forced through each shipping strategy on an
// in-process 3-site federation, recording the bytes each one actually
// moves (the xstd_fed_bytes_shipped_total counter) next to the cost
// model's prediction. The experiment passes when every strategy returns
// the same cardinality and the model's pick lands within a small factor
// of the measured-best strategy — the property the planner's choice
// rests on.
func E15FederatedShipping(cfg Config) Result {
	const id = "E15"
	title := "Federated join shipping — measured bytes vs cost model"
	fail := func(err error) Result {
		return Result{ID: id, Title: title, Lines: []string{err.Error()}, Pass: false}
	}

	nUsers, nOrders := 2000, 8000
	if cfg.Quick {
		nUsers, nOrders = 400, 1600
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	usersSchema := table.Schema{Name: "users", Cols: []string{"id", "name", "age"}}
	ordersSchema := table.Schema{Name: "orders", Cols: []string{"oid", "uid", "amount"}}
	users := make([]table.Row, nUsers)
	for i := range users {
		users[i] = table.Row{
			core.Int(i), core.Str(fmt.Sprintf("u%03d", rng.Intn(500))), core.Int(rng.Intn(80)),
		}
	}
	orders := make([]table.Row, nOrders)
	for i := range orders {
		orders[i] = table.Row{
			core.Int(i), core.Int(rng.Intn(nUsers)), core.Int(rng.Intn(1000)),
		}
	}
	var bounds []core.Value
	for i := 1; i < 3; i++ {
		bounds = append(bounds, core.Int(i*nOrders/3))
	}
	populate := func(dbs []*catalog.Database) error {
		if err := fed.CreateSharded(dbs, usersSchema,
			&catalog.Partition{Kind: catalog.PartHash, Col: "id"}, users); err != nil {
			return err
		}
		return fed.CreateSharded(dbs, ordersSchema,
			&catalog.Partition{Kind: catalog.PartRange, Col: "oid", Bounds: bounds}, orders)
	}

	stmt := "from orders join users on uid = id where amount < 100 select oid, amount, name"
	forced := []struct {
		name  string
		strat fed.Strategy
	}{
		{"shipall", fed.ShipAll},
		{"broadcast", fed.Broadcast},
		{"semijoin", fed.SemiJoin},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	measured := map[string]uint64{}
	rowsBy := map[string]int{}
	var in fed.CostInputs
	for _, f := range forced {
		lf, err := fed.BootLocal(ctx, 3, fed.Config{ForceStrategy: f.name}, populate)
		if err != nil {
			return fail(err)
		}
		q, err := lf.Coord.Compile(stmt)
		if err != nil {
			lf.Shutdown(ctx)
			return fail(err)
		}
		rows := 0
		if _, err := q.Run(ctx, func(b []table.Row) error { rows += len(b); return nil }); err != nil {
			lf.Shutdown(ctx)
			return fail(err)
		}
		measured[f.name] = lf.Coord.Metrics().BytesShipped.Value()
		rowsBy[f.name] = rows
		// Build the model's inputs from the coordinator's own sampled
		// metadata (once): the planner's System-R constant for one "<"
		// conjunct is 0.3, and JoinRows uses the true cardinality, as the
		// dist agreement benchmark does.
		if in.Sites == 0 {
			tabs := map[string]*fed.TableMeta{}
			for _, m := range lf.Coord.Tables() {
				tabs[m.Name] = m
			}
			in = fed.CostInputs{
				LeftRows:        tabs["orders"].Rows(),
				RightRows:       tabs["users"].Rows(),
				LeftRowBytes:    tabs["orders"].RowBytes,
				RightRowBytes:   tabs["users"].RowBytes,
				KeyBytes:        9,
				LeftSelectivity: 0.3,
				Sites:           3,
				JoinRows:        rows,
			}
		}
		lf.Shutdown(ctx)
	}

	est := map[string]float64{}
	for _, f := range forced {
		est[f.name] = fed.EstimateBytes(in, f.strat)
	}
	pick, best := forced[0].name, forced[0].name
	var rows [][]string
	for _, f := range forced {
		if est[f.name] < est[pick] {
			pick = f.name
		}
		if measured[f.name] < measured[best] {
			best = f.name
		}
		rows = append(rows, []string{
			f.name,
			fmt.Sprintf("%.0f", est[f.name]),
			fmt.Sprintf("%d", measured[f.name]),
			fmt.Sprintf("%d", rowsBy[f.name]),
		})
	}
	sameRows := rowsBy[forced[0].name] == rowsBy[forced[1].name] &&
		rowsBy[forced[1].name] == rowsBy[forced[2].name]
	pass := sameRows && measured[pick] <= 3*measured[best]

	lines := tableRows([]string{"strategy", "model bytes", "measured bytes", "rows"}, rows)
	lines = append(lines,
		fmt.Sprintf("model pick: %s; measured best: %s; identical results: %v", pick, best, sameRows))
	return Result{ID: id, Title: title, Lines: lines, Pass: pass}
}
