package algebra

import (
	"context"

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
// context: it polls once per round and every ctxCheckEvery members.
func TransitiveClosureCtx(ctx context.Context, r *core.Set) (*core.Set, error) {
	return transitiveClosure(ctx, r, allDigestBits)
}

// transitiveClosure indexes R's pairs once and joins each round's new
// members against that one index: the relative product is associative
// where it is defined, so every member of R⁺ is a product p1/…/pn of
// members of R and is reached by extending a product one member of R
// at a time. "Already found" is a digest-keyed seen-set over the one
// growing member list, which is canonicalised once, at the end.
func transitiveClosure(ctx context.Context, r *core.Set, mask uint64) (*core.Set, error) {
	all := make([]core.Member, 0, r.Len())
	seen := core.NewChains(r.Len())
	digest := func(m core.Member) uint64 { return foldMember(0, m) & mask }
	steps := 0
	for _, m := range r.Members() {
		if steps++; steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if n, ok := core.TupLen(m.Elem); ok && n == 2 {
			all = append(all, m)
			seen.Add(digest(m))
		}
	}
	cst := cstSpec()
	j := newJoin(all, cst.Sigma, cst.Omega, mask) // reads R's pairs only, which later appends leave in place
	var round []core.Member
	for lo := 0; lo < len(all); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := len(all)
		for _, m := range all[lo:hi] {
			if steps++; steps%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			round = j.probe(round[:0], m)
		found:
			for _, z := range round {
				if steps++; steps%ctxCheckEvery == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				d := digest(z)
				for id := seen.First(d); id >= 0; id = seen.Next(id) {
					if memberEqual(all[id], z) {
						continue found
					}
				}
				all = append(all, z)
				seen.Add(d)
			}
		}
		lo = hi
	}
	return core.OwnSet(all), nil
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
