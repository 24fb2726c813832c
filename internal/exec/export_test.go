package exec

import (
	"maps"
	"sync/atomic"

	"xst/internal/core"
	"xst/internal/table"
)

// SetDigestMask narrows the digest every keyed table files its keys
// under to mask, forcing collisions, for the external tests, and
// returns the func that restores it.
func SetDigestMask(mask uint64) (restore func()) {
	prev := digestMask
	digestMask = mask
	return func() { digestMask = prev }
}

// SetPoisonRelease turns on poison mode for the external tests (see
// recycle.go): every release overwrites what it hands back with
// sentinels, and a holder taken twice or put back twice panics. It
// returns the func that turns it off, which reports the holders taken
// since and not put back.
func SetPoisonRelease() (restore func() (live int)) {
	liveMu.Lock()
	before := maps.Clone(live)
	liveMu.Unlock()
	prev := poisoned
	poisoned = true
	return func() int {
		liveMu.Lock()
		defer liveMu.Unlock()
		n := 0
		for h, taken := range live {
			if taken && !before[h] {
				n++
			}
		}
		if poisoned = prev; !prev {
			clear(live)
		}
		return n
	}
}

// CountDigests counts the key digests every keyed table takes until the
// returned func, which stops counting and returns the count.
func CountDigests() (stop func() int64) {
	var n atomic.Int64
	digests = &n
	return func() int64 {
		digests = nil
		return n.Load()
	}
}

// Partitions returns an open build's rows and, per partition, the rows it
// files (nil for one partition: every row) and its keyed table.
func Partitions(b *HashBuild) (rows *table.Batch, ids [][]int32, tables []core.Chains) {
	for _, p := range b.parts {
		ids, tables = append(ids, p.ids), append(tables, p.chains)
	}
	return &b.mem.rows, ids, tables
}

// RowPred lifts a predicate over boxed rows — the oracle a compiled
// filter is tested against — to a Filter, boxing each candidate row.
func RowPred(p func(table.Row) bool) Filter {
	var row table.Row
	return func(b *table.Batch, sel []int32) []int32 {
		k := 0
		for _, i := range sel {
			row = row[:0]
			for c := range b.Cols {
				row = append(row, b.Cols[c].Value(int(i)))
			}
			if p(row) {
				sel[k], k = i, k+1
			}
		}
		return sel[:k]
	}
}

// AggRows boxes st's result into rows, in key order.
func AggRows(st *AggState) ([]table.Row, error) {
	res, perm, err := st.Result()
	if err != nil {
		return nil, err
	}
	var b table.Batch
	b.Gather(res, perm)
	rows, _ := b.AppendRows(nil, nil)
	return rows, nil
}
