package core

import "testing"

func TestEmptySet(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.Len() != 0 {
		t.Fatal("Empty() must be empty")
	}
	if NewSet() != e {
		t.Fatal("NewSet() must return the shared empty set")
	}
	if e.String() != "{}" {
		t.Fatalf("∅ renders as %q", e.String())
	}
}

func TestNewSetCanonicalizes(t *testing.T) {
	a := NewSet(E(Int(2)), E(Int(1)), E(Int(2)))
	b := NewSet(E(Int(1)), E(Int(2)))
	if !Equal(a, b) {
		t.Fatal("duplicates must collapse and order must not matter")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestScopedMembershipDistinct(t *testing.T) {
	s := NewSet(M(Int(1), Str("x")), M(Int(1), Str("y")))
	if s.Len() != 2 {
		t.Fatal("same element under two scopes is two members")
	}
	if !s.Has(Int(1), Str("x")) || !s.Has(Int(1), Str("y")) {
		t.Fatal("Has must find both scoped memberships")
	}
	if s.Has(Int(1), Str("z")) {
		t.Fatal("Has must miss absent scope")
	}
	if !s.HasElem(Int(1)) || s.HasElem(Int(2)) {
		t.Fatal("HasElem wrong")
	}
}

func TestMembersOfAndElemsUnder(t *testing.T) {
	s := NewSet(
		M(Int(1), Str("x")), M(Int(1), Str("y")),
		M(Int(2), Str("x")), E(Int(3)),
	)
	run := s.MembersOf(Int(1))
	if len(run) != 2 || !Equal(run[0].Scope, Str("x")) || !Equal(run[1].Scope, Str("y")) {
		t.Fatalf("MembersOf(1) = %v", run)
	}
	for _, absent := range []Value{Int(0), Int(4), Str("x"), Empty()} {
		if got := s.MembersOf(absent); len(got) != 0 {
			t.Fatalf("MembersOf(%v) = %v", absent, got)
		}
	}
	if got := Empty().MembersOf(Int(1)); len(got) != 0 {
		t.Fatalf("∅.MembersOf(1) = %v", got)
	}
	under := s.ElemsUnder(Str("x"))
	if len(under) != 2 || !Equal(under[0], Int(1)) || !Equal(under[1], Int(2)) {
		t.Fatalf("ElemsUnder(x) = %v", under)
	}
	if got := s.ElemsUnder(Str("zzz")); len(got) != 0 {
		t.Fatalf("ElemsUnder(zzz) = %v", got)
	}
}

func TestElemsAndScopesDedup(t *testing.T) {
	s := NewSet(M(Int(1), Str("x")), M(Int(1), Str("y")), M(Int(2), Str("x")))
	if e := s.Elems(); len(e) != 2 {
		t.Fatalf("Elems = %v", e)
	}
	if sc := s.Scopes(); len(sc) != 2 {
		t.Fatalf("Scopes = %v", sc)
	}
}

func TestIsClassical(t *testing.T) {
	if !S(Int(1), Int(2)).IsClassical() {
		t.Fatal("S() builds classical sets")
	}
	if NewSet(M(Int(1), Int(1))).IsClassical() {
		t.Fatal("scoped member is not classical")
	}
	if !Empty().IsClassical() {
		t.Fatal("∅ is classical")
	}
}

func TestEachEarlyStop(t *testing.T) {
	s := S(Int(1), Int(2), Int(3))
	n := 0
	s.Each(func(Member) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Each visited %d members, want 2", n)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(4)
	b.Add(Int(1), Str("s")).AddClassical(Int(2)).AddMember(E(Int(2)))
	b.AddSet(S(Int(3)))
	if b.Len() != 4 {
		t.Fatalf("builder Len = %d", b.Len())
	}
	s := b.Set()
	want := NewSet(M(Int(1), Str("s")), E(Int(2)), E(Int(3)))
	if !Equal(s, want) {
		t.Fatalf("built %v, want %v", s, want)
	}
}

func TestNestedSetsAsElementsAndScopes(t *testing.T) {
	inner := S(Int(1))
	s := NewSet(M(inner, inner))
	if !s.Has(inner, S(Int(1))) {
		t.Fatal("structural lookup of nested set failed")
	}
}

func TestMemberAccessor(t *testing.T) {
	s := S(Int(2), Int(1))
	if !Equal(s.Member(0).Elem, Int(1)) || !Equal(s.Member(1).Elem, Int(2)) {
		t.Fatal("Member(i) must follow canonical order")
	}
}

func TestDeepNesting(t *testing.T) {
	// 1000 levels of set nesting: construction, equality, comparison,
	// hashing, rendering and the codec must all stay iterative-safe.
	deep := func() Value {
		v := Value(Int(0))
		for i := 0; i < 1000; i++ {
			v = S(v)
		}
		return v
	}
	a, b := deep(), deep()
	if !Equal(a, b) {
		t.Fatal("deep equality failed")
	}
	if Compare(a, b) != 0 {
		t.Fatal("deep compare failed")
	}
	if Digest(a) != Digest(b) {
		t.Fatal("deep digest failed")
	}
	enc := Encode(a)
	got, err := DecodeFull(enc)
	if err != nil || !Equal(got, a) {
		t.Fatalf("deep codec failed: %v", err)
	}
	if len(a.(*Set).String()) < 1000 {
		t.Fatal("deep rendering failed")
	}
}

func TestWideSet(t *testing.T) {
	// 100k members: builder, lookup and boolean ops at width.
	b := NewBuilder(100_000)
	for i := 0; i < 100_000; i++ {
		b.AddClassical(Int(i))
	}
	s := b.Set()
	if s.Len() != 100_000 {
		t.Fatalf("wide set len = %d", s.Len())
	}
	if !s.HasClassical(Int(99_999)) || s.HasClassical(Int(100_000)) {
		t.Fatal("wide lookup failed")
	}
	half := NewBuilder(50_000)
	for i := 0; i < 100_000; i += 2 {
		half.AddClassical(Int(i))
	}
	if d := Diff(s, half.Set()); d.Len() != 50_000 {
		t.Fatalf("wide diff = %d", d.Len())
	}
}

func TestCopyMembers(t *testing.T) {
	s := NewSet(E(Int(1)), E(Int(2)), M(Int(3), Int(1)))
	cp := s.CopyMembers()
	if len(cp) != s.Len() {
		t.Fatalf("CopyMembers len = %d, want %d", len(cp), s.Len())
	}
	for i, m := range s.Members() {
		if !Equal(cp[i].Elem, m.Elem) || !Equal(cp[i].Scope, m.Scope) {
			t.Fatalf("CopyMembers[%d] = %v, want %v", i, cp[i], m)
		}
	}
	// The copy must have its own backing array: writes through it must not
	// reach the canonical slice.
	before := s.String()
	cp[0] = M(Int(99), Int(99))
	if s.String() != before {
		t.Fatalf("mutating the copy changed the set: %s", s)
	}
	if &cp[0] == &s.Members()[0] {
		t.Fatal("CopyMembers aliases the canonical slice")
	}
}

// TestSlabSetsAreOrdinarySets: sets carved from a Slab equal, hash and
// order like sets built one allocation at a time, past the room the
// slab was made with, and leave the caller's scratch free for reuse.
func TestSlabSetsAreOrdinarySets(t *testing.T) {
	sl := NewSlab(1024, 1024)
	var scratch []Member
	var got, want []*Set
	for i := 0; i < 3*1024; i++ {
		scratch = append(scratch[:0], M(Int(i), Int(2)), M(Int(i%7), Int(1)), M(Int(i), Int(2)))
		want = append(want, NewSet(scratch...))
		got = append(got, sl.Set(scratch))
	}
	for i := range got {
		if !Equal(got[i], want[i]) || Digest(got[i]) != Digest(want[i]) || Compare(got[i], want[i]) != 0 {
			t.Fatalf("slab set %d = %v, want %v", i, got[i], want[i])
		}
		if len(got[i].Members()) != cap(got[i].Members()) {
			t.Fatalf("slab set %d: member window has spare capacity into its neighbour", i)
		}
	}
	if sl.Set(scratch[:0]) != Empty() {
		t.Fatal("empty slab set is not the interned ∅")
	}
	big := make([]Member, 2*1024)
	for i := range big {
		big[i] = E(Int(i))
	}
	if s := sl.Set(big); s.Len() != len(big) {
		t.Fatalf("oversized slab set kept %d of %d members", s.Len(), len(big))
	}
}

func TestCanonicalizeAndOwnSet(t *testing.T) {
	for n := 0; n <= 6; n++ {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = M(Int((n-i)%3), Int(i%2))
		}
		want := NewSet(ms...)
		canon := Canonicalize(append([]Member(nil), ms...))
		if len(canon) != want.Len() {
			t.Fatalf("n=%d: Canonicalize kept %d members, want %d", n, len(canon), want.Len())
		}
		for i, m := range canon {
			if compareMembers(m, want.Member(i)) != 0 {
				t.Fatalf("n=%d: Canonicalize[%d] = %v, want %v", n, i, m, want.Member(i))
			}
		}
		if got := OwnSet(ms); !Equal(got, want) {
			t.Fatalf("n=%d: OwnSet = %v, want %v", n, got, want)
		}
	}
}
