package core

import "testing"

func TestUnionIntersectDiffBasics(t *testing.T) {
	a := S(Int(1), Int(2), Int(3))
	b := S(Int(2), Int(3), Int(4))
	if got := Union(a, b); !Equal(got, S(Int(1), Int(2), Int(3), Int(4))) {
		t.Fatalf("Union = %v", got)
	}
	if got := Intersect(a, b); !Equal(got, S(Int(2), Int(3))) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := Diff(a, b); !Equal(got, S(Int(1))) {
		t.Fatalf("Diff = %v", got)
	}
	if got := SymDiff(a, b); !Equal(got, S(Int(1), Int(4))) {
		t.Fatalf("SymDiff = %v", got)
	}
}

func TestUnionIdentities(t *testing.T) {
	a := S(Int(1))
	if Union(a, Empty()) != a || Union(Empty(), a) != a {
		t.Fatal("union with ∅ must return the operand unchanged")
	}
	if !Intersect(a, Empty()).IsEmpty() {
		t.Fatal("a ∩ ∅ = ∅")
	}
	if Diff(a, Empty()) != a {
		t.Fatal("a ∼ ∅ = a")
	}
	if !Diff(Empty(), a).IsEmpty() {
		t.Fatal("∅ ∼ a = ∅")
	}
}

func TestScopeAwareBooleans(t *testing.T) {
	// {1^x} and {1^y} are disjoint as membership facts.
	a := NewSet(M(Int(1), Str("x")))
	b := NewSet(M(Int(1), Str("y")))
	if !Intersect(a, b).IsEmpty() {
		t.Fatal("same element, different scopes: intersection empty")
	}
	if got := Union(a, b); got.Len() != 2 {
		t.Fatalf("union keeps both scoped facts: %v", got)
	}
}

func TestUnionAll(t *testing.T) {
	got := UnionAll(S(Int(1)), S(Int(2)), S(Int(1), Int(3)))
	if !Equal(got, S(Int(1), Int(2), Int(3))) {
		t.Fatalf("UnionAll = %v", got)
	}
	if !UnionAll().IsEmpty() {
		t.Fatal("UnionAll() = ∅")
	}
}

func TestSubsetFamily(t *testing.T) {
	a := S(Int(1), Int(2))
	b := S(Int(1), Int(2), Int(3))
	if !Subset(a, b) || Subset(b, a) {
		t.Fatal("Subset wrong")
	}
	if !Subset(a, a) || ProperSubset(a, a) {
		t.Fatal("subset reflexive, proper subset irreflexive")
	}
	if !ProperSubset(a, b) {
		t.Fatal("ProperSubset wrong")
	}
	if !Subset(Empty(), a) || NonEmptySubset(Empty(), a) {
		t.Fatal("∅ ⊆ a but not non-empty-subset")
	}
	if !NonEmptySubset(a, b) {
		t.Fatal("NonEmptySubset wrong")
	}
}

func TestSingleton(t *testing.T) {
	if !Singleton(S(Int(1))) {
		t.Fatal("one-member set is a singleton")
	}
	if Singleton(Empty()) || Singleton(S(Int(1), Int(2))) || Singleton(Int(1)) {
		t.Fatal("Singleton false cases wrong")
	}
	// Two scopes on one element: two members, not a singleton.
	if Singleton(NewSet(M(Int(1), Str("x")), M(Int(1), Str("y")))) {
		t.Fatal("two scoped facts are not a singleton")
	}
}

func TestPowerset(t *testing.T) {
	p := Powerset(S(Int(1), Int(2)))
	if p.Len() != 4 {
		t.Fatalf("℘ of 2-set has %d members, want 4", p.Len())
	}
	if !p.HasClassical(Empty()) || !p.HasClassical(S(Int(1), Int(2))) {
		t.Fatal("℘ must contain ∅ and the set itself")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Powerset must panic above the size guard")
		}
	}()
	big := NewBuilder(21)
	for i := 0; i < 21; i++ {
		big.AddClassical(Int(i))
	}
	Powerset(big.Set())
}

func TestSubsetsEnumeration(t *testing.T) {
	n := 0
	Subsets(S(Int(1), Int(2), Int(3)), func(sub *Set) bool {
		if !Subset(sub, S(Int(1), Int(2), Int(3))) {
			t.Fatalf("non-subset produced: %v", sub)
		}
		n++
		return true
	})
	if n != 8 {
		t.Fatalf("enumerated %d subsets, want 8", n)
	}
	n = 0
	Subsets(S(Int(1), Int(2)), func(*Set) bool { n++; return false })
	if n != 1 {
		t.Fatal("Subsets must stop when fn returns false")
	}
}

func TestCard(t *testing.T) {
	s := NewSet(M(Int(1), Str("x")), M(Int(1), Str("y")), E(Int(2)))
	if Card(s) != 2 {
		t.Fatalf("Card = %d, want 2 (distinct elements)", Card(s))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (membership facts)", s.Len())
	}
	for _, s := range []*Set{Empty(), S(Int(7)), s, Union(s, S(Int(1), Str("x")))} {
		if Card(s) != len(s.Elems()) {
			t.Fatalf("Card(%v) = %d, want %d", s, Card(s), len(s.Elems()))
		}
	}
}
