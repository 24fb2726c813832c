package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/xtest"
)

func rid(n int) store.RID { return store.RID{Page: store.PageID(n / 100), Slot: uint16(n % 100)} }

func key(n int) string { return fmt.Sprintf("k%06d", n) }

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	perm := xtest.NewRand(1)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- { // Fisher-Yates with deterministic PRNG
		j := perm.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, i := range order {
		bt.Insert(key(i), rid(i))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d", bt.Len())
	}
	for i := 0; i < n; i += 37 {
		got := bt.Lookup(key(i))
		if len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("Lookup(%d) = %v", i, got)
		}
	}
	if bt.Lookup("absent") != nil {
		t.Fatal("absent key must be nil")
	}
	if bt.Depth() < 2 {
		t.Fatal("5000 keys must split the root")
	}
}

func TestBTreeDuplicatePostings(t *testing.T) {
	bt := NewBTree()
	bt.Insert("dup", rid(1))
	bt.Insert("dup", rid(2))
	bt.Insert("dup", rid(3))
	if got := bt.Lookup("dup"); len(got) != 3 {
		t.Fatalf("postings = %v", got)
	}
	if bt.Len() != 1 {
		t.Fatal("duplicate keys count once")
	}
}

func TestBTreeKeysSorted(t *testing.T) {
	bt := NewBTree()
	r := xtest.NewRand(2)
	inserted := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := key(r.Intn(500))
		inserted[k] = true
		bt.Insert(k, rid(i))
	}
	keys := bt.Keys()
	if len(keys) != len(inserted) {
		t.Fatalf("keys = %d, want %d", len(keys), len(inserted))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("keys out of order")
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(key(i), rid(i))
	}
	var got []string
	bt.Range(key(100), key(110), func(k string, _ []store.RID) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != key(100) || got[9] != key(109) {
		t.Fatalf("range = %v", got)
	}
	// Unbounded hi.
	cnt := 0
	bt.Range(key(990), "", func(string, []store.RID) bool { cnt++; return true })
	if cnt != 10 {
		t.Fatalf("unbounded range = %d", cnt)
	}
	// Early stop.
	cnt = 0
	bt.Range("", "", func(string, []store.RID) bool { cnt++; return cnt < 5 })
	if cnt != 5 {
		t.Fatal("early stop failed")
	}
	// Range starting between keys.
	got = nil
	bt.Range(key(100)+"!", key(102), func(k string, _ []store.RID) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 1 || got[0] != key(101) {
		t.Fatalf("between-keys range = %v", got)
	}
}

func TestBTreeSequentialAndReverseInsert(t *testing.T) {
	for name, step := range map[string]int{"asc": 1, "desc": -1} {
		bt := NewBTree()
		start := 0
		if step < 0 {
			start = 2999
		}
		for i := 0; i < 3000; i++ {
			bt.Insert(key(start+step*i), rid(i))
		}
		if bt.Len() != 3000 {
			t.Fatalf("%s: Len = %d", name, bt.Len())
		}
		if !sort.StringsAreSorted(bt.Keys()) {
			t.Fatalf("%s: unsorted", name)
		}
	}
}

func TestHashIndex(t *testing.T) {
	h := NewHashIndex(0)
	a, b := core.Str("a"), core.Str("b")
	h.Insert(a, rid(1))
	h.Insert(a, rid(2))
	h.Insert(b, rid(3))
	if got := h.Probe(nil, a); len(got) != 2 {
		t.Fatalf("Probe(a) = %v", got)
	}
	if h.Len() != 2 {
		t.Fatal("Len wrong")
	}
	if got := h.Probe(nil, a); got[0] != rid(1) || got[1] != rid(2) {
		t.Fatalf("postings out of insertion order: %v", got)
	}
	if h.Probe(nil, core.Str("c")) != nil {
		t.Fatal("absent key must give nil")
	}
	// Probe appends after what dst holds; Lookup decodes a core.Key.
	if got := h.Probe([]store.RID{rid(9)}, a); len(got) != 3 || got[0] != rid(9) || got[1] != rid(1) {
		t.Fatalf("Probe onto a non-empty dst = %v", got)
	}
	if got := h.Lookup(core.Key(a)); len(got) != 2 || got[1] != rid(2) {
		t.Fatalf("Lookup(Key(a)) = %v", got)
	}
	if h.Lookup("a") != nil || h.Lookup(core.Key(a)+"x") != nil {
		t.Fatal("a string that is not exactly one encoded value must give nil")
	}
	// Kinds never match across: Int 1, Float 1 and Str "1" are three keys,
	// while ±0.0 is one.
	h.Insert(core.Int(1), rid(4))
	h.Insert(core.Float(1), rid(5))
	h.Insert(core.Float(0), rid(6))
	h.Insert(core.Float(math.Copysign(0, -1)), rid(7))
	if got := h.Probe(nil, core.Int(1)); len(got) != 1 || got[0] != rid(4) {
		t.Fatalf("Probe(Int 1) = %v", got)
	}
	if got := h.Probe(nil, core.Float(0)); len(got) != 2 {
		t.Fatalf("Probe(0.0) = %v, want both zeros", got)
	}
	if h.Probe(nil, core.Str("1")) != nil || h.Len() != 5 {
		t.Fatalf("Str 1 must be absent; Len = %d, want 5", h.Len())
	}
}

func TestBTreeHashAgree(t *testing.T) {
	bt, h := NewBTree(), NewHashIndex(0)
	r := xtest.NewRand(3)
	for i := 0; i < 3000; i++ {
		k := key(r.Intn(700))
		bt.Insert(k, rid(i))
		h.Insert(core.Str(k), rid(i))
	}
	for i := 0; i < 700; i++ {
		a, b := bt.Lookup(key(i)), h.Probe(nil, core.Str(key(i)))
		if !slices.Equal(a, b) {
			t.Fatalf("key %d: btree %v vs hash %v postings", i, a, b)
		}
	}
}
