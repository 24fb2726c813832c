package core

import "testing"

func TestPairIsDef72(t *testing.T) {
	p := Pair(Str("x"), Str("y"))
	want := NewSet(M(Str("x"), Int(1)), M(Str("y"), Int(2)))
	if !Equal(p, want) {
		t.Fatalf("⟨x,y⟩ = %v, want {x^1, y^2}", p)
	}
}

func TestTupleRecognizer(t *testing.T) {
	if n, ok := TupLen(Tuple(Int(1), Int(2), Int(3))); !ok || n != 3 {
		t.Fatalf("tup(⟨1,2,3⟩) = %d,%v", n, ok)
	}
	if n, ok := TupLen(Empty()); !ok || n != 0 {
		t.Fatal("∅ is the 0-tuple")
	}
	if _, ok := TupLen(S(Int(1))); ok {
		t.Fatal("classical singleton is not a tuple (scope ∅, not 1)")
	}
	if _, ok := TupLen(NewSet(M(Str("a"), Int(1)), M(Str("b"), Int(3)))); ok {
		t.Fatal("index gap means not a tuple")
	}
	if _, ok := TupLen(Int(5)); ok {
		t.Fatal("atom is not a tuple")
	}
	// Duplicate elements at distinct positions are fine: ⟨a,a⟩.
	if n, ok := TupLen(Tuple(Str("a"), Str("a"))); !ok || n != 2 {
		t.Fatal("⟨a,a⟩ is a 2-tuple")
	}
}

func TestTupleSharedPositions(t *testing.T) {
	// {a^1, b^1} has two members on position 1: not a tuple.
	s := NewSet(M(Str("a"), Int(1)), M(Str("b"), Int(1)))
	if _, ok := TupLen(s); ok {
		t.Fatal("position collision must not be a tuple")
	}
	// The same on either side of the 64 positions one word records.
	for _, n := range []int{64, 65, 200} {
		xs := make([]Value, n)
		for i := range xs {
			xs[i] = Int(i)
		}
		wide := Tuple(xs...)
		if got, ok := TupLen(wide); !ok || got != n {
			t.Fatalf("tup of a %d-tuple = %d,%v", n, got, ok)
		}
		ms := wide.CopyMembers()
		ms[n-1].Scope = Int(1) // two members on position 1, none on n
		if _, ok := TupLen(NewSet(ms...)); ok {
			t.Fatalf("%d members with a position collision must not be a tuple", n)
		}
	}
}

func TestTupleElemsOrder(t *testing.T) {
	elems, ok := TupleElems(Tuple(Str("c"), Str("a"), Str("b")))
	if !ok || len(elems) != 3 {
		t.Fatal("TupleElems failed")
	}
	for i, want := range []string{"c", "a", "b"} {
		if !Equal(elems[i], Str(want)) {
			t.Fatalf("position %d = %v, want %q", i+1, elems[i], want)
		}
	}
}

func TestTupleAt(t *testing.T) {
	tp := Tuple(Str("p"), Str("q"))
	if !Equal(TupleAt(tp, 1), Str("p")) || !Equal(TupleAt(tp, 2), Str("q")) {
		t.Fatal("TupleAt wrong")
	}
	for _, bad := range []func(){
		func() { TupleAt(tp, 0) },
		func() { TupleAt(tp, 3) },
		func() { TupleAt(S(Int(1)), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("TupleAt must panic on invalid use")
				}
			}()
			bad()
		}()
	}
}

func TestConcatDef92(t *testing.T) {
	x := Tuple(Str("a"), Str("b"), Str("c"), Str("d"))
	y := Tuple(Str("w"), Str("x"), Str("y"), Str("z"))
	z, ok := Concat(x, y)
	if !ok {
		t.Fatal("Concat of tuples must succeed")
	}
	want := Tuple(Str("a"), Str("b"), Str("c"), Str("d"), Str("w"), Str("x"), Str("y"), Str("z"))
	if !Equal(z, want) {
		t.Fatalf("concat = %v", z)
	}
	// tup(x·y) = n + m.
	if n, _ := TupLen(z); n != 8 {
		t.Fatalf("tup(x·y) = %d, want 8", n)
	}
}

func TestConcatWithEmptyTuple(t *testing.T) {
	x := Tuple(Str("a"))
	if z, ok := Concat(x, Empty()); !ok || !Equal(z, x) {
		t.Fatal("x · ⟨⟩ = x")
	}
	if z, ok := Concat(Empty(), x); !ok || !Equal(z, x) {
		t.Fatal("⟨⟩ · x = x")
	}
}

func TestConcatNonTuple(t *testing.T) {
	if _, ok := Concat(S(Int(1)), Tuple(Int(2))); ok {
		t.Fatal("Concat of non-tuple must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustConcat must panic on non-tuple")
		}
	}()
	MustConcat(Int(1), Int(2))
}

func TestTupleScoped(t *testing.T) {
	m := TupleScoped(
		[]Value{Str("a"), Str("x")},
		[]Value{Str("A"), Str("Z")},
	)
	if !Equal(m.Elem, Tuple(Str("a"), Str("x"))) || !Equal(m.Scope, Tuple(Str("A"), Str("Z"))) {
		t.Fatal("TupleScoped wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	TupleScoped([]Value{Str("a")}, nil)
}

func TestTupleRendering(t *testing.T) {
	if got := Tuple(Str("a"), Str("b")).String(); got != `<"a","b">` {
		t.Fatalf("tuple renders as %q", got)
	}
	if got := NewSet(M(Int(1), Str("s"))).String(); got != `{1^"s"}` {
		t.Fatalf("scoped member renders as %q", got)
	}
	if got := S(Int(1), Int(2)).String(); got != "{1, 2}" {
		t.Fatalf("classical set renders as %q", got)
	}
}
