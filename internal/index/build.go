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
	if err := checkCol(t, col); err != nil {
		return nil, err
	}
	idx := NewHashIndex(t.Count())
	steps := 0
	err := t.Scan(func(rid store.RID, r table.Row) (bool, error) {
		steps++
		if steps%buildPollEvery == 0 && ctx.Err() != nil {
			return false, ctx.Err()
		}
		idx.Insert(r[col], rid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// BuildBTree scans the table once and indexes column col under its
// order-preserving encoding (core.OrderKey). Only atoms order-encode,
// so rows whose column holds a non-atom value make the build fail —
// a btree over such a column would silently miss rows on range scans.
func BuildBTree(ctx context.Context, t *table.Table, col int) (*BTree, error) {
	if err := checkCol(t, col); err != nil {
		return nil, err
	}
	idx := NewBTree()
	steps := 0
	err := t.Scan(func(rid store.RID, r table.Row) (bool, error) {
		steps++
		if steps%buildPollEvery == 0 && ctx.Err() != nil {
			return false, ctx.Err()
		}
		if r[col].Kind() == core.KindSet {
			return false, fmt.Errorf("index: column %q holds non-atom %v; btree needs atoms",
				t.Schema().Cols[col], r[col])
		}
		idx.Insert(core.OrderKey(r[col]), rid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

func checkCol(t *table.Table, col int) error {
	if col < 0 || col >= t.Schema().Arity() {
		return fmt.Errorf("index: column %d out of range for %s", col, t.Schema().Name)
	}
	return nil
}
