package algebra

import (
	"context"
	"slices"

	"xst/internal/core"
)

// BigUnion implements ⋃A: the union of all set-valued elements of A.
// Scopes inside the element sets are preserved; non-set elements
// contribute nothing. (⋃∅ = ∅.)
func BigUnion(a *core.Set) *core.Set {
	b := core.NewBuilder(a.Len())
	for _, m := range a.Members() {
		if s, ok := m.Elem.(*core.Set); ok {
			b.AddSet(s)
		}
	}
	return b.Set()
}

// TransitiveClosure returns R⁺ for a set of classical pairs: the
// smallest transitive relation containing R, computed by semi-naive
// iteration of the CST relative product (each round joins only the
// newly discovered pairs against R). Non-pair members are ignored.
func TransitiveClosure(r *core.Set) *core.Set {
	s, _ := TransitiveClosureCtx(context.Background(), r)
	return s
}

// TransitiveClosureCtx is TransitiveClosure under a cancellation
// context: it polls every ctxCheckEvery members and matches.
func TransitiveClosureCtx(ctx context.Context, r *core.Set) (*core.Set, error) {
	return DeriveTransitiveClosure(r).Set(ctx)
}

// DeriveTransitiveClosure derives the members of R⁺, filed distinct the
// first time they are yielded. The relative product is associative
// where it is defined, so every member of R⁺ is a product p1/…/pn of
// R's pairs, reached by extending a product one pair at a time against
// one join over R. Under CSTSpec a product keeps position 1 of p1 and
// position 2 of pn, in its element and in its scope, so it is named by
// those two pairs, and it joins on its last pair's key. R's own pairs
// stay as themselves.
func DeriveTransitiveClosure(r *core.Set) *Derived {
	rs := r.Members()
	if slices.ContainsFunc(rs, notPair) {
		rs = slices.DeleteFunc(r.CopyMembers(), notPair)
	}
	j := newJoin(rs, rs, cst.Sigma, cst.Omega)
	d := &Derived{derive: j.derive, own: rs}
	d.seen = d.table(len(rs), false)
	closed := false
	d.each = func(ctx context.Context, yield func(cand)) error {
		if !closed {
			if err := extend(ctx, j, d.seen); err != nil {
				return err
			}
			closed = true
		}
		return d.seen.each(ctx, yield)
	}
	return d
}

// extend files R's pairs in seen, then every extension of a filed
// product by a pair its last pair matches, until none is new.
func extend(ctx context.Context, j *join, seen *table) error {
	steps := 0
	for i := range j.f {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		seen.add(cand{-1, int32(i)})
	}
	for i := 0; i < len(seen.ids); i++ {
		first, last := seen.ids[i][0], seen.ids[i][1]
		if first < 0 {
			first = last
		}
		j.hits = j.match(j.hits[:0], j.f[last])
		for _, id := range j.hits {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			seen.add(cand{first, id})
		}
	}
	return nil
}

func notPair(m core.Member) bool {
	n, ok := core.TupLen(m.Elem)
	return !ok || n != 2
}

// ReflexiveTransitiveClosure returns R* = R⁺ ∪ {⟨x,x⟩ : x in field(R)}.
func ReflexiveTransitiveClosure(r *core.Set) *core.Set {
	s, _ := ReflexiveTransitiveClosureCtx(context.Background(), r)
	return s
}

// ReflexiveTransitiveClosureCtx is ReflexiveTransitiveClosure under a
// cancellation context.
func ReflexiveTransitiveClosureCtx(ctx context.Context, r *core.Set) (*core.Set, error) {
	plus, err := TransitiveClosureCtx(ctx, r)
	if err != nil {
		return nil, err
	}
	b := core.NewBuilder(plus.Len())
	b.AddSet(plus)
	steps := 0
	for _, m := range plus.Members() {
		if steps++; steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		elems, ok := core.TupleElems(m.Elem)
		if !ok || len(elems) != 2 {
			continue
		}
		b.AddClassical(core.Pair(elems[0], elems[0]))
		b.AddClassical(core.Pair(elems[1], elems[1]))
	}
	return b.Set(), nil
}
