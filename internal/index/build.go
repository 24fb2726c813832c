package index

import (
	"context"
	"fmt"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// buildPollEvery bounds how many rows a build walks between ctx polls.
const buildPollEvery = 256

// BuildHash scans the table once and files column col's values in a
// hash index sized for the table's rows. The returned index answers
// point lookups only; any value kind is indexable.
func BuildHash(ctx context.Context, t *table.Table, col int) (*HashIndex, error) {
	idx := NewHashIndex(t.Count())
	err := scanCol(ctx, t, col, func(v core.Value, rid store.RID) error {
		idx.Insert(v, rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// BuildBTree scans the table once and indexes column col under its
// order-preserving encoding (core.OrderKey). A set in the column fails
// the build with NonAtomKey's error.
func BuildBTree(ctx context.Context, t *table.Table, col int) (*BTree, error) {
	idx := NewBTree()
	err := scanCol(ctx, t, col, func(v core.Value, rid store.RID) error {
		if v.Kind() == core.KindSet {
			return NonAtomKey(t.Schema().Cols[col], v)
		}
		idx.Insert(core.OrderKey(v), rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// NonAtomKey is the error a btree gives a key v of column col that is a
// set. Only atoms order-encode, and a btree that skipped the row would
// silently miss it on range scans.
func NonAtomKey(col string, v core.Value) error {
	return fmt.Errorf("index: column %q holds non-atom %v; btree needs atoms", col, v)
}

// scanCol calls add with column col's value and the rid of every row of
// t, polling ctx every buildPollEvery rows.
func scanCol(ctx context.Context, t *table.Table, col int, add func(core.Value, store.RID) error) error {
	if col < 0 || col >= t.Schema().Arity() {
		return fmt.Errorf("index: column %d out of range for %s", col, t.Schema().Name)
	}
	steps := 0
	return t.Scan(func(rid store.RID, r table.Row) (bool, error) {
		steps++
		if steps%buildPollEvery == 0 && ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, add(r[col], rid)
	})
}
