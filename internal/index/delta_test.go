package index

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/xtest"
)

func drid(p, s int) store.RID {
	return store.RID{Page: store.PageID(p), Slot: uint16(s)}
}

// hashMasks are the digest bits the differential tests run under: all
// of them, and subsets that force every collision shape — a few dozen
// digests shared by many keys, a couple of thousand digests each on a
// bucket of its own or sharing one, and one digest (so one bucket) for
// everything, where only core.Equal tells keys apart.
var hashMasks = map[string]uint64{
	"all bits":    ^uint64(0),
	"top 5 bits":  0x1f << 59,
	"low 11 bits": 0x7ff,
	"no bits":     0,
}

// oracle is the flat reference a HashIndex version must equal.
type oracle map[string][]store.RID

func (o oracle) with(entries []HashEntry) oracle {
	nw := make(oracle, len(o))
	for k, ps := range o {
		nw[k] = ps
	}
	for _, e := range entries {
		k := string(e.Key.(core.Str))
		nw[k] = append(append([]store.RID(nil), nw[k]...), e.RID)
	}
	return nw
}

// checkAgainst compares every key of the universe, present or absent:
// same postings in insertion order through Probe and through the Lookup
// adapter, and the same distinct-key count.
func checkAgainst(t *testing.T, what string, h *HashIndex, want oracle, universe int) {
	t.Helper()
	if h.Len() != len(want) {
		t.Fatalf("%s: Len = %d, oracle has %d keys", what, h.Len(), len(want))
	}
	for i := 0; i < universe; i++ {
		k := fmt.Sprintf("k%d", i)
		if got := h.Probe(nil, core.Str(k)); !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("%s: Probe(%s) = %v, oracle %v", what, k, got, want[k])
		}
		if got := h.Lookup(core.Key(core.Str(k))); !reflect.DeepEqual(got, want[k]) {
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
			delta := func() []HashEntry {
				es := make([]HashEntry, 1+r.Intn(40))
				for i := range es {
					es[i] = HashEntry{Key: core.Str(fmt.Sprintf("k%d", r.Intn(universe))), RID: drid(next/100, next%100)}
					next++
				}
				return es
			}
			base := newHashIndex(0, mask)
			want := oracle{}
			for _, e := range delta() { // the in-place bulk build
				base.Insert(e.Key, e.RID)
				want = want.with([]HashEntry{e})
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
	k0 := core.Str("k0")
	base := NewHashIndex(keys)
	for i := 0; i < keys; i++ {
		base.Insert(core.Str(fmt.Sprintf("k%d", i)), drid(1, i))
	}
	published := make(chan *HashIndex, rounds) // holds every version: the writer never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(published)
		cur := base
		for round := 0; round < rounds; round++ {
			cur = cur.WithInserts([]HashEntry{
				{Key: core.Str(fmt.Sprintf("k%d", round)), RID: drid(2, round)}, // another posting for a base key
				{Key: core.Str(fmt.Sprintf("new%d", round)), RID: drid(3, round)},
			})
			published <- cur
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range published {
				if got := base.Probe(nil, k0); len(got) != 1 {
					t.Errorf("base changed under a reader: k0 = %v", got)
					return
				}
				if v.Len() <= keys || len(v.Probe(nil, k0)) != 2 {
					t.Errorf("published version: Len %d, k0 = %v", v.Len(), v.Probe(nil, k0))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Readers pinned at old versions must see exactly their own prefix —
// the entries the writer files meanwhile neither appear nor disturb the
// chains they walk — while the writer keeps appending across several
// growth steps of the shared table (run under -race).
func TestHashPinnedReadersAcrossGrowth(t *testing.T) {
	const rounds, readers = 400, 4
	for name, mask := range map[string]uint64{"all bits": ^uint64(0), "low 3 bits": 0x7} {
		t.Run(name, func(t *testing.T) {
			dup := core.Str("dup")
			base := newHashIndex(4, mask) // room for 8: the writer grows it 7 times
			base.Insert(dup, drid(0, 0))
			start := len(base.tab.lay.Load().ents)
			// check is version i's oracle: i+1 postings of dup, the fresh
			// keys of rounds below i, nothing of the rounds after.
			check := func(i int, v *HashIndex) {
				if got := v.Probe(nil, dup); len(got) != i+1 || got[i] != drid(0, i) {
					t.Errorf("version %d: dup = %v", i, got)
				}
				if v.Len() != i+1 {
					t.Errorf("version %d: Len = %d, want %d", i, v.Len(), i+1)
				}
				if i > 0 {
					if got := v.Probe(nil, core.Int(int64(i-1))); len(got) != 1 || got[0] != drid(1, i-1) {
						t.Errorf("version %d: key %d = %v", i, i-1, got)
					}
				}
				if got := v.Probe(nil, core.Int(int64(i))); got != nil {
					t.Errorf("version %d sees a later round's key: %v", i, got)
				}
			}
			var (
				mu       sync.Mutex
				versions = []*HashIndex{base}
				done     = make(chan struct{})
				wg       sync.WaitGroup
			)
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := xtest.NewRand(uint64(w + 1))
					for stop := false; !stop; {
						select {
						case <-done:
							stop = true // one last pass over every version
						default:
						}
						mu.Lock()
						vs := versions
						mu.Unlock()
						check(0, vs[0]) // pinned at the base throughout
						i := r.Intn(len(vs))
						check(i, vs[i])
					}
				}(w)
			}
			cur := base
			for i := 0; i < rounds; i++ {
				cur = cur.WithInserts([]HashEntry{
					{Key: core.Int(int64(i)), RID: drid(1, i)},
					{Key: dup, RID: drid(0, i+1)},
				})
				mu.Lock()
				versions = append(versions, cur)
				mu.Unlock()
			}
			close(done)
			wg.Wait()
			if end := len(cur.tab.lay.Load().ents); end < 8*start {
				t.Fatalf("the table went from room for %d entries to %d: fewer than three growth steps", start, end)
			}
			for i, v := range versions {
				check(i, v)
			}
		})
	}
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
