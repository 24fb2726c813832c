package bench

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/dist"
	"xst/internal/fed"
	"xst/internal/table"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// E11DistributedJoin measures the distributed dimension of the paper's
// title claim ("very large, *distributed*, backend information
// systems"): the same equi-join executed across a simulated cluster
// under four shipping strategies, at two left-side selectivities. The
// reproduction target is the classic shape: semijoin reduction wins on
// network bytes when the probe side is selective; co-located joins ship
// only results; broadcast pays per-site.
func E11DistributedJoin(cfg Config) Result {
	sites := 4
	users, orders := 4_000, 20_000
	if cfg.Quick {
		users, orders = 400, 2_000
	}

	c := dist.NewCluster(sites, 256)
	if err := c.CreateTable(workload.UsersSchema()); err != nil {
		return errResult("E11", err)
	}
	if err := c.CreateTable(workload.OrdersSchema()); err != nil {
		return errResult("E11", err)
	}
	r := xtest.NewRand(cfg.Seed)
	for i := 0; i < users; i++ {
		row := table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%02d", r.Intn(20))), core.Int(r.Intn(100))}
		if err := c.InsertHash("users", 0, row); err != nil {
			return errResult("E11", err)
		}
	}
	for i := 0; i < orders; i++ {
		row := table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))}
		if err := c.InsertHash("orders", 1, row); err != nil {
			return errResult("E11", err)
		}
	}

	selectivities := []struct {
		name  string
		limit core.Int
	}{
		{"50%", 500},
		{"2%", 20},
	}
	strategies := []fed.Strategy{fed.ShipAll, fed.Broadcast, fed.SemiJoin, fed.CoLocated}

	pass := true
	var rows [][]string
	for _, sel := range selectivities {
		limit := sel.limit
		spec := dist.JoinSpec{
			Left: "orders", Right: "users",
			LeftCol: 1, RightCol: 0,
			LeftPred:     func(row table.Row) bool { return core.Compare(row[2], limit) < 0 },
			LeftPredName: "amount<" + limit.String(),
		}
		bytesBy := map[fed.Strategy]uint64{}
		var wantRows int
		for _, strat := range strategies {
			c.Net.Reset()
			var got []table.Row
			var err error
			d := timeIt(2, func() { got, err = c.Join(context.Background(), spec, strat) })
			if err != nil {
				return errResult("E11", err)
			}
			st := c.Net.Stats()
			bytesBy[strat] = st.Bytes
			if wantRows == 0 {
				wantRows = len(got)
			} else if len(got) != wantRows {
				return errResult("E11", fmt.Errorf("%v returned %d rows, want %d", strat, len(got), wantRows))
			}
			rows = append(rows, []string{
				sel.name, strat.String(),
				fmt.Sprintf("%d", st.Bytes), fmt.Sprintf("%d", st.Messages),
				d.String(), fmt.Sprintf("%d", len(got)),
			})
		}
		// Expected shape at high selectivity: semijoin beats ship-all on
		// bytes; co-located beats both base-shipping strategies.
		if sel.limit == 20 {
			if bytesBy[fed.SemiJoin] >= bytesBy[fed.ShipAll] {
				pass = false
			}
			if bytesBy[fed.CoLocated] >= bytesBy[fed.Broadcast] {
				pass = false
			}
		}
	}
	return Result{
		ID:    "E11",
		Title: "Distributed join strategies (title claim: distributed backend)",
		Lines: tableRows([]string{"selectivity", "strategy", "net bytes", "msgs", "time", "rows"}, rows),
		Pass:  pass,
	}
}
