package exec

import "xst/internal/table"

// SetDigestMask narrows the digest every keyed table files its keys
// under to mask, forcing collisions, for the external tests, and
// returns the func that restores it.
func SetDigestMask(mask uint64) (restore func()) {
	prev := digestMask
	digestMask = mask
	return func() { digestMask = prev }
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
