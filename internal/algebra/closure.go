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
// smallest transitive relation containing R, read off by reachability
// (DeriveTransitiveClosure). Non-pair members are ignored.
func TransitiveClosure(r *core.Set) *core.Set {
	s, _ := TransitiveClosureCtx(context.Background(), r)
	return s
}

// TransitiveClosureCtx is TransitiveClosure under a cancellation
// context: it polls every ctxCheckEvery keys, pairs and nodes searched.
func TransitiveClosureCtx(ctx context.Context, r *core.Set) (*core.Set, error) {
	return DeriveTransitiveClosure(r).Set(ctx)
}

// DeriveTransitiveClosure derives the members of R⁺ by reachability.
// Pair p of R has an in-key in(p) = p^{/⟨1⟩/} and an out-key p^{/⟨2⟩/},
// the keys the join compares: the keys are nodes, p an edge in(p) →
// out(p). Under CSTSpec a product p1/…/pn keeps position 1 of p1 and 2
// of pn, in element and scope, so (in(p1), out(pn)) names it one-to-one,
// and its n ≥ 2 pairs are a path. R's own pairs stay as themselves.
func DeriveTransitiveClosure(r *core.Set) *Derived {
	rs := r.Members()
	if slices.ContainsFunc(rs, notPair) {
		rs = slices.DeleteFunc(r.CopyMembers(), notPair)
	}
	j := &join{sigma: cst.Sigma, omega: cst.Omega, f: rs, g: rs}
	g := &keyGraph{d: &Derived{derive: j.derive, own: rs, distinct: r.IsClassical()}}
	g.d.each = g.each
	return g.d
}

// keyGraph is R's join keys interned as dense node ids, with pair p the
// edge in(p) → out(p), in CSR form, built by the first search.
type keyGraph struct {
	d     *Derived
	off   []int32 // node u's out-edges are pairs[off[u]:off[u+1]]
	pairs []int32 // pair ids grouped by in-node
	out   []int32 // pair id → its out-node
	a, b  []core.Member
}

// build interns every pair's in- and out-key, named (p, side), in one
// table: no key is stored.
func (g *keyGraph) build(ctx context.Context) error {
	rs, sides := g.d.own, [2]*core.Set{cst.Omega.S1, cst.Sigma.S2}
	keys := newTable(2*len(rs), func(dst []core.Member, c cand) ([]core.Member, int) {
		return appendKey(dst, rs[c[0]], sides[c[1]])
	})
	ends, steps := make([]int32, 2*len(rs)), 0 // ends[2p] = in(p), ends[2p+1] = out(p)
	for e := range ends {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		ends[e] = keys.add(cand{int32(e / 2), int32(e % 2)})
	}
	off, pairs, out := make([]int32, len(keys.ids)+1), make([]int32, len(rs)), make([]int32, len(rs))
	for p := range rs {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		off[ends[2*p]]++
		out[p] = ends[2*p+1]
	}
	for u := range len(keys.ids) {
		off[u+1] += off[u]
	}
	for p := len(rs) - 1; p >= 0; p-- {
		off[ends[2*p]]--
		pairs[off[ends[2*p]]] = int32(p)
	}
	g.off, g.pairs, g.out = off, pairs, out
	return nil
}

// each yields, for each node u, R's own pairs from u, then the product
// named (u, w) for every w that a path of two or more pairs reaches: one
// breadth-first search from u's successors, yielded only once reached,
// over one stamp array. An own pair equal to its p/p is yielded once.
func (g *keyGraph) each(ctx context.Context, yield func(cand)) error {
	if g.off == nil {
		if err := g.build(ctx); err != nil {
			return err
		}
	}
	d, steps := g.d, 0
	stamp := make([]int32, len(g.off)-1) // node → u+1 once the search from u reached it, −(u+1) while only a seed
	q := make([]int32, 0, 2*len(stamp))
	for u := range stamp {
		from, s := g.pairs[g.off[u]:g.off[u+1]], int32(u+1)
		q = q[:0]
		for _, p := range from {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			yield(cand{-1, p})
			if v := g.out[p]; stamp[v] != -s {
				stamp[v], q = -s, append(q, p)
			}
		}
		seeds := len(q)
		for i := 0; i < len(q); i++ {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			v := g.out[q[i]]
			for _, p := range g.pairs[g.off[v]:g.off[v+1]] {
				if w := g.out[p]; stamp[w] != s {
					stamp[w], q = s, append(q, p)
				}
			}
		}
		for _, p := range from { // (in(p), out(p)) names p/p: drop it when it is p
			if v := g.out[p]; stamp[v] == s {
				var n, m int
				g.a, n = d.runs(g.a[:0], cand{-1, p}, false)
				if g.b, m = d.derive(g.b[:0], cand{p, p}); n == m && slices.EqualFunc(g.a, g.b, memberEqual) {
					stamp[v] = 0
				}
			}
		}
		for _, p := range q[seeds:] {
			if stamp[g.out[p]] == s {
				yield(cand{from[0], p})
			}
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
		if err := tick(ctx, &steps); err != nil {
			return nil, err
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
