package core

import (
	"math/rand"
	"testing"
)

// The binary set operations as they were before the merge walk: the
// two sequences concatenated and re-sorted, or one binary search per
// member. They stay here as the oracles of the merges.

func refUnion(a, b *Set) *Set {
	ms := make([]Member, 0, len(a.members)+len(b.members))
	ms = append(ms, a.members...)
	ms = append(ms, b.members...)
	return ownSet(ms)
}

func refIntersect(a, b *Set) *Set {
	var ms []Member
	for _, m := range a.members {
		if b.Has(m.Elem, m.Scope) {
			ms = append(ms, m)
		}
	}
	return ownSet(ms)
}

func refDiff(a, b *Set) *Set {
	var ms []Member
	for _, m := range a.members {
		if !b.Has(m.Elem, m.Scope) {
			ms = append(ms, m)
		}
	}
	return ownSet(ms)
}

func refSubset(a, b *Set) bool {
	for _, m := range a.members {
		if !b.Has(m.Elem, m.Scope) {
			return false
		}
	}
	return true
}

// randScoped draws a set over few elements and few scopes — atoms,
// pairs and ∅ — so that elements recur under several scopes and two
// draws overlap.
func randScoped(r *rand.Rand) *Set {
	vals := []Value{Int(0), Int(1), Str("a"), Pair(Int(0), Int(1)), Pair(Int(1), Int(0)), Empty(), S(Int(1))}
	n := r.Intn(9)
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Elem: vals[r.Intn(len(vals))], Scope: vals[r.Intn(len(vals))]}
		if r.Intn(3) == 0 {
			ms[i].Scope = Empty()
		}
	}
	return NewSet(ms...)
}

// TestMergeMatchesOracles holds Union, Intersect, Diff, Subset and the
// two counts to the oracles on random scoped operands, including a ⊆ b
// and a = b.
func TestMergeMatchesOracles(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 5000; i++ {
		a, b := randScoped(r), randScoped(r)
		switch i % 5 {
		case 0:
			b = refUnion(a, b)
		case 1:
			b = a
		}
		for _, c := range []struct {
			op       string
			got, ref *Set
		}{
			{"∪", Union(a, b), refUnion(a, b)},
			{"∩", Intersect(a, b), refIntersect(a, b)},
			{"∼", Diff(a, b), refDiff(a, b)},
			{"∼'", Diff(b, a), refDiff(b, a)},
		} {
			if !Equal(c.got, c.ref) || c.got.hash != c.ref.hash {
				t.Fatalf("%v %s %v = %v, want %v", a, c.op, b, c.got, c.ref)
			}
		}
		if got, want := Subset(a, b), refSubset(a, b); got != want {
			t.Fatalf("%v ⊆ %v = %v, want %v", a, b, got, want)
		}
		if got, want := UnionCard(a, b), Card(refUnion(a, b)); got != want {
			t.Fatalf("card(%v ∪ %v) = %d, want %d", a, b, got, want)
		}
		if got, want := IntersectCard(a, b), Card(refIntersect(a, b)); got != want {
			t.Fatalf("card(%v ∩ %v) = %d, want %d", a, b, got, want)
		}
	}
}

// TestMergeCardAllocs: counting a union or an intersection allocates
// nothing.
func TestMergeCardAllocs(t *testing.T) {
	a := NewSet(M(Int(1), Empty()), M(Int(1), Int(2)), M(Int(3), Empty()))
	b := NewSet(M(Int(1), Int(2)), M(Int(2), Empty()), M(Int(3), Int(5)))
	if got := testing.AllocsPerRun(100, func() { _ = UnionCard(a, b) + IntersectCard(a, b) }); got != 0 {
		t.Fatalf("UnionCard+IntersectCard: %.0f allocations, want 0", got)
	}
}
