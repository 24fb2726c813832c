package xtest

import (
	"context"
	"errors"
	"testing"

	"xst/internal/core"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := NewRand(3)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n/2-300 || trues > n/2+300 {
		t.Fatalf("Bool gave %d/%d trues", trues, n)
	}
}

func TestValueGeneratorShapes(t *testing.T) {
	r := NewRand(4)
	cfg := DefaultConfig()
	sawAtom, sawSet, sawScoped := false, false, false
	for i := 0; i < 500; i++ {
		v := cfg.Value(r)
		switch x := v.(type) {
		case *core.Set:
			sawSet = true
			for _, m := range x.Members() {
				if sc, ok := m.Scope.(*core.Set); !ok || !sc.IsEmpty() {
					sawScoped = true
				}
			}
		default:
			sawAtom = true
		}
	}
	if !sawAtom || !sawSet || !sawScoped {
		t.Fatalf("generator not diverse: atom=%v set=%v scoped=%v", sawAtom, sawSet, sawScoped)
	}
}

func TestTupleGenerator(t *testing.T) {
	r := NewRand(5)
	cfg := DefaultConfig()
	for i := 0; i < 200; i++ {
		tp := cfg.Tuple(r, 5)
		n, ok := core.TupLen(tp)
		if !ok || n < 1 || n > 5 {
			t.Fatalf("Tuple gave %v (tup=%d ok=%v)", tp, n, ok)
		}
	}
}

func TestRelationGenerator(t *testing.T) {
	r := NewRand(6)
	cfg := DefaultConfig()
	rel := cfg.Relation(r, 50, 5, 5)
	for _, m := range rel.Members() {
		elems, ok := core.TupleElems(m.Elem)
		if !ok || len(elems) != 2 {
			t.Fatalf("non-pair member %v", m.Elem)
		}
	}
	if rel.Len() == 0 || rel.Len() > 50 {
		t.Fatalf("relation size %d", rel.Len())
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(7)
	z := NewZipf(r, 100, 1.1)
	counts := make([]int, 100)
	const n = 20000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 50 heavily under s=1.1.
	if counts[0] < 5*counts[50] {
		t.Fatalf("insufficient skew: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// All mass accounted for.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatal("lost samples")
	}
}

// TestPollCount: PollCount reports an op's Err polls and its error, and
// AssertCancelAborts at that count cancels the op's last poll.
func TestPollCount(t *testing.T) {
	boom := errors.New("boom")
	op := func(ctx context.Context) error {
		for i := 0; i < 5; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return boom
	}
	if n, err := PollCount(op); n != 5 || err != boom {
		t.Fatalf("PollCount = %d, %v; want 5, %v", n, err, boom)
	}
	AssertCancelAborts(t, 5, op)
}
