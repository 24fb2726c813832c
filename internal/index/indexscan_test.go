package index_test

import (
	"context"
	"math"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/store"
	"xst/internal/table"
)

type label string

func (l label) String() string { return string(l) }

// An exec.IndexScan over keys that share digests — every key one digest
// under "no bits" — must return exactly the rows whose key is core.Equal
// to the probe, in insertion order: the index confirms what the digest
// only suggests, across kinds and with ±0.0 as one key.
func TestIndexScanConfirmsCollidingKeys(t *testing.T) {
	keys := []core.Value{
		core.Int(1), core.Float(1), core.Str("1"), core.Bool(true),
		core.Int(2), core.Str("a"), core.Str("b"),
		core.Float(0), core.Float(math.Copysign(0, -1)), core.Int(0),
		core.Tuple(core.Int(1), core.Int(2)), core.Tuple(core.Int(2), core.Int(1)),
	}
	probes := append([]core.Value{core.Int(3), core.Str("")}, keys...)
	for name, mask := range map[string]uint64{"no bits": 0, "low 2 bits": 0x3} {
		t.Run(name, func(t *testing.T) {
			tbl, err := table.Create(store.NewBufferPool(store.NewMemPager(), 16), table.Schema{Name: "t", Cols: []string{"k", "n"}})
			if err != nil {
				t.Fatal(err)
			}
			idx := index.NewMaskedHashIndex(0, mask)
			var rows []table.Row
			for i := 0; i < 300; i++ {
				r := table.Row{keys[i*7%len(keys)], core.Int(int64(i))}
				rid, err := tbl.Insert(r)
				if err != nil {
					t.Fatal(err)
				}
				idx.Insert(r[0], rid)
				rows = append(rows, r)
			}
			for _, p := range probes {
				got, err := exec.Collect(context.Background(), exec.NewHashIndexScan(tbl.Table(), idx, p, label("t.k"), nil))
				if err != nil {
					t.Fatal(err)
				}
				var want []table.Row
				for _, r := range rows {
					if core.Equal(r[0], p) {
						want = append(want, r)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("probe %v: %d rows, want %d", p, len(got), len(want))
				}
				for i := range got {
					if !core.Equal(got[i][0], want[i][0]) || !core.Equal(got[i][1], want[i][1]) {
						t.Fatalf("probe %v: row %d is %v, want %v", p, i, got[i], want[i])
					}
				}
			}
		})
	}
}
