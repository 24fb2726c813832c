package index

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xst/internal/store"
	"xst/internal/xtest"
)

func drid(p, s int) store.RID {
	return store.RID{Page: store.PageID(p), Slot: uint16(s)}
}

// hashMasks are the hash bits the differential tests run under: all of
// them, and subsets that force every collision shape — keys that agree
// on the low digits and differ only at the top (long single-child
// chains), keys that agree on all 64 bits (the bucket under the last
// digit), and one hash for everything.
var hashMasks = map[string]uint64{
	"all bits":    ^uint64(0),
	"top 5 bits":  0x1f << 59,
	"low 11 bits": 0x7ff,
	"no bits":     0,
}

// oracle is the flat reference a HashIndex version must equal.
type oracle map[string][]store.RID

func (o oracle) with(entries []Entry) oracle {
	nw := make(oracle, len(o))
	for k, ps := range o {
		nw[k] = ps
	}
	for _, e := range entries {
		nw[e.Key] = append(append([]store.RID(nil), nw[e.Key]...), e.RID)
	}
	return nw
}

// checkAgainst compares every key of the universe, present or absent:
// same postings in insertion order, and the same distinct-key count.
func checkAgainst(t *testing.T, what string, h *HashIndex, want oracle, universe int) {
	t.Helper()
	if h.Len() != len(want) {
		t.Fatalf("%s: Len = %d, oracle has %d keys", what, h.Len(), len(want))
	}
	for i := 0; i < universe; i++ {
		k := fmt.Sprintf("k%d", i)
		if got := h.Lookup(k); !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("%s: Lookup(%s) = %v, oracle %v", what, k, got, want[k])
		}
	}
}

// Random WithInserts sequences, with duplicate keys inside and across
// deltas, must match the oracle at every version — and every version
// must still match its own oracle after all its successors, including
// two that branch from the same parent, have been derived.
func TestHashWithInsertsDifferential(t *testing.T) {
	const universe = 600
	for name, mask := range hashMasks {
		t.Run(name, func(t *testing.T) {
			r := xtest.NewRand(11)
			next := 0
			delta := func() []Entry {
				es := make([]Entry, 1+r.Intn(40))
				for i := range es {
					es[i] = Entry{Key: fmt.Sprintf("k%d", r.Intn(universe)), RID: drid(next/100, next%100)}
					next++
				}
				return es
			}
			base := newHashIndex(mask)
			want := oracle{}
			for _, e := range delta() { // the in-place bulk build
				base.Insert(e.Key, e.RID)
				want = want.with([]Entry{e})
			}
			versions, oracles := []*HashIndex{base}, []oracle{want}
			for round := 0; round < 60; round++ {
				// Mostly extend the newest version, sometimes branch off an old one.
				from := len(versions) - 1
				if r.Intn(4) == 0 {
					from = r.Intn(len(versions))
				}
				es := delta()
				versions = append(versions, versions[from].WithInserts(es))
				oracles = append(oracles, oracles[from].with(es))
				checkAgainst(t, fmt.Sprintf("round %d", round), versions[len(versions)-1], oracles[len(oracles)-1], universe)
			}
			for i := range versions {
				checkAgainst(t, fmt.Sprintf("version %d after its successors", i), versions[i], oracles[i], universe)
			}
		})
	}
}

// Lookups on old versions must be race-free while another goroutine
// derives new ones from them (run under -race).
func TestHashLookupDuringDerivation(t *testing.T) {
	const keys, rounds, readers = 2000, 200, 4
	base := NewHashIndex()
	for i := 0; i < keys; i++ {
		base.Insert(fmt.Sprintf("k%d", i), drid(1, i))
	}
	published := make(chan *HashIndex, rounds) // holds every version: the writer never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(published)
		cur := base
		for round := 0; round < rounds; round++ {
			cur = cur.WithInserts([]Entry{
				{Key: fmt.Sprintf("k%d", round), RID: drid(2, round)}, // grows a shared posting list
				{Key: fmt.Sprintf("new%d", round), RID: drid(3, round)},
			})
			published <- cur
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range published {
				if got := base.Lookup("k0"); len(got) != 1 {
					t.Errorf("base changed under a reader: k0 = %v", got)
					return
				}
				if v.Len() <= keys || len(v.Lookup("k0")) != 2 {
					t.Errorf("published version: Len %d, k0 = %v", v.Len(), v.Lookup("k0"))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Inserted must path-copy: the old tree keeps answering the old world
// while the new tree includes the inserts, across leaf and interior
// splits and root splits.
func TestBTreeInserted(t *testing.T) {
	old := NewBTree()
	for i := 0; i < 500; i += 2 { // even keys only
		old.Insert(fmt.Sprintf("k%04d", i), drid(1, i))
	}
	oldLen := old.Len()

	var ents []Entry
	for i := 1; i < 500; i += 2 { // odd keys
		ents = append(ents, Entry{Key: fmt.Sprintf("k%04d", i), RID: drid(2, i)})
	}
	ents = append(ents, Entry{Key: "k0000", RID: drid(2, 0)}) // posting append on shared list
	nw := old.Inserted(ents)

	if old.Len() != oldLen {
		t.Fatalf("old tree Len changed: %d → %d", oldLen, old.Len())
	}
	if got := old.Lookup("k0001"); got != nil {
		t.Fatalf("old tree sees new key: %v", got)
	}
	if got := old.Lookup("k0000"); len(got) != 1 {
		t.Fatalf("old tree posting list mutated: %v", got)
	}
	if nw.Len() != oldLen+len(ents)-1 {
		t.Fatalf("new tree Len = %d, want %d", nw.Len(), oldLen+len(ents)-1)
	}
	if got := nw.Lookup("k0001"); len(got) != 1 || got[0] != drid(2, 1) {
		t.Fatalf("new tree missing inserted key: %v", got)
	}
	if got := nw.Lookup("k0000"); len(got) != 2 || got[1] != drid(2, 0) {
		t.Fatalf("new tree posting append: %v", got)
	}

	// Every key, old and new, must come back in order from Range.
	var keys []string
	nw.Range("", "", func(k string, _ []store.RID) bool {
		keys = append(keys, k)
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatal("Range out of order after persistent inserts")
	}
	if len(keys) != nw.Len() {
		t.Fatalf("Range visited %d keys, Len says %d", len(keys), nw.Len())
	}
}

// The recursive Range must agree with Keys and honor half-open bounds
// on both the mutable and the persistent tree.
func TestBTreeRangeBounds(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 300; i++ {
		bt.Insert(fmt.Sprintf("k%03d", i), drid(1, i))
	}
	nw := bt.Inserted([]Entry{{Key: "k999", RID: drid(2, 0)}})
	for _, tr := range []*BTree{bt, nw} {
		var got []string
		tr.Range("k100", "k110", func(k string, _ []store.RID) bool {
			got = append(got, k)
			return true
		})
		want := []string{"k100", "k101", "k102", "k103", "k104", "k105", "k106", "k107", "k108", "k109"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Range[k100,k110) = %v", got)
		}
		// Early stop must hold.
		n := 0
		tr.Range("", "", func(string, []store.RID) bool {
			n++
			return n < 5
		})
		if n != 5 {
			t.Fatalf("Range ignored early stop: visited %d", n)
		}
	}
}
