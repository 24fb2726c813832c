package dist

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/fed"
	"xst/internal/table"
)

// JoinSpec describes a distributed equi-join with an optional left-side
// restriction (the common shape: filter one side, join the other).
type JoinSpec struct {
	Left, Right       string // table names
	LeftCol, RightCol int    // join columns
	LeftPred          exec.Pred
	LeftPredName      string
}

func (c *Cluster) leftOps(spec JoinSpec) []exec.Op {
	if spec.LeftPred == nil {
		return nil
	}
	return []exec.Op{&exec.Restrict{Pred: spec.LeftPred, Name: spec.LeftPredName}}
}

// Join executes the spec under the given strategy and returns the joined
// rows (left ++ right). All strategies return the same multiset; they
// differ in how much crosses the network. ctx bounds the site-local scans.
func (c *Cluster) Join(ctx context.Context, spec JoinSpec, strat fed.Strategy) ([]table.Row, error) {
	switch strat {
	case fed.ShipAll:
		return c.joinShipAll(ctx, spec)
	case fed.Broadcast:
		return c.joinBroadcast(ctx, spec)
	case fed.SemiJoin:
		return c.joinSemi(ctx, spec)
	case fed.CoLocated:
		return c.joinCoLocated(ctx, spec)
	default:
		return nil, fmt.Errorf("dist: unknown strategy %v", strat)
	}
}

// collectLocal runs ops over one partition and returns the surviving
// rows without network accounting (site-local work).
func collectLocal(ctx context.Context, t *table.Table, ops []exec.Op) ([]table.Row, error) {
	return exec.Collect(ctx, exec.NewStages(exec.NewScan(t, nil), ops...))
}

// joinKeys is the distinct join-key set of rows: an image 𝔇 of the
// restriction, which is all a semijoin ships.
func joinKeys(rows []table.Row, col int) []core.Value {
	seen := map[string]bool{}
	var keys []core.Value
	for _, r := range rows {
		if k := core.Key(r[col]); !seen[k] {
			seen[k] = true
			keys = append(keys, r[col])
		}
	}
	return keys
}

// inKeys restricts rows to those whose col is one of keys.
func inKeys(keys []core.Value, col int) exec.Op {
	member := make(map[string]bool, len(keys))
	for _, k := range keys {
		member[core.Key(k)] = true
	}
	return &exec.Restrict{
		Pred: func(r table.Row) bool { return member[core.Key(r[col])] },
		Name: "semijoin-reduce",
	}
}

func hashJoinRows(left, right []table.Row, lcol, rcol int) []table.Row {
	build := make(map[string][]table.Row, len(right))
	for _, r := range right {
		k := core.Key(r[rcol])
		build[k] = append(build[k], r)
	}
	var out []table.Row
	for _, l := range left {
		for _, r := range build[core.Key(l[lcol])] {
			row := make(table.Row, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			out = append(out, row)
		}
	}
	return out
}

func (c *Cluster) joinShipAll(ctx context.Context, spec JoinSpec) ([]table.Row, error) {
	lparts, err := c.partitions(spec.Left)
	if err != nil {
		return nil, err
	}
	rparts, err := c.partitions(spec.Right)
	if err != nil {
		return nil, err
	}
	var left, right []table.Row
	for _, p := range lparts {
		rows, err := collectLocal(ctx, p, c.leftOps(spec))
		if err != nil {
			return nil, err
		}
		left = append(left, c.Net.Ship(rows)...)
	}
	for _, p := range rparts {
		rows, err := collectLocal(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		right = append(right, c.Net.Ship(rows)...)
	}
	return hashJoinRows(left, right, spec.LeftCol, spec.RightCol), nil
}

func (c *Cluster) joinBroadcast(ctx context.Context, spec JoinSpec) ([]table.Row, error) {
	rparts, err := c.partitions(spec.Right)
	if err != nil {
		return nil, err
	}
	// Gather the right table once...
	var right []table.Row
	for _, p := range rparts {
		rows, err := collectLocal(ctx, p, nil)
		if err != nil {
			return nil, err
		}
		right = append(right, c.Net.Ship(rows)...)
	}
	lparts, err := c.partitions(spec.Left)
	if err != nil {
		return nil, err
	}
	var out []table.Row
	for _, p := range lparts {
		// ...then broadcast it to every left site (one shipment each).
		localRight := c.Net.Ship(right)
		left, err := collectLocal(ctx, p, c.leftOps(spec))
		if err != nil {
			return nil, err
		}
		joined := hashJoinRows(left, localRight, spec.LeftCol, spec.RightCol)
		out = append(out, c.Net.Ship(joined)...)
	}
	return out, nil
}

func (c *Cluster) joinSemi(ctx context.Context, spec JoinSpec) ([]table.Row, error) {
	lparts, err := c.partitions(spec.Left)
	if err != nil {
		return nil, err
	}
	// 1. Each left site computes its (filtered) partition; the
	// coordinator takes their distinct join keys.
	var left []table.Row
	for _, p := range lparts {
		rows, err := collectLocal(ctx, p, c.leftOps(spec))
		if err != nil {
			return nil, err
		}
		left = append(left, c.Net.Ship(rows)...)
	}
	keys := joinKeys(left, spec.LeftCol)
	// 2. Ship the key set to each right site; they return only the
	// matching rows (a restriction by the shipped set).
	rparts, err := c.partitions(spec.Right)
	if err != nil {
		return nil, err
	}
	var right []table.Row
	for _, p := range rparts {
		rows, err := collectLocal(ctx, p, []exec.Op{inKeys(c.Net.ShipKeys(keys), spec.RightCol)})
		if err != nil {
			return nil, err
		}
		right = append(right, c.Net.Ship(rows)...)
	}
	return hashJoinRows(left, right, spec.LeftCol, spec.RightCol), nil
}

func (c *Cluster) joinCoLocated(ctx context.Context, spec JoinSpec) ([]table.Row, error) {
	lparts, err := c.partitions(spec.Left)
	if err != nil {
		return nil, err
	}
	rparts, err := c.partitions(spec.Right)
	if err != nil {
		return nil, err
	}
	var out []table.Row
	for i := range c.Sites {
		left, err := collectLocal(ctx, lparts[i], c.leftOps(spec))
		if err != nil {
			return nil, err
		}
		right, err := collectLocal(ctx, rparts[i], nil)
		if err != nil {
			return nil, err
		}
		joined := hashJoinRows(left, right, spec.LeftCol, spec.RightCol)
		out = append(out, c.Net.Ship(joined)...)
	}
	return out, nil
}
