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
	d := &Derived{own: rs, distinct: r.IsClassical()}
	d.src = &keyGraph{d: d, join: join{sigma: cst.Sigma, omega: cst.Omega, f: rs, g: rs}}
	return d
}

// keyGraph is R's join keys interned as dense node ids, with pair p the
// edge in(p) → out(p), in CSR form, filed in the finish's scratch. The
// join derives a path's product from its first and last pair; its file
// and each are keyGraph's own.
type keyGraph struct {
	join
	d *Derived
}

// key is the join key of pair c[0] on side c[1]: in(p), then out(p).
func (g *keyGraph) key(dst []core.Member, c cand) ([]core.Member, int) {
	return appendKey(dst, g.f[c[0]], [2]*core.Set{g.omega.S1, g.sigma.S2}[c[1]])
}

// file interns every pair's in- and out-key, named (p, side), in one
// table, and groups the pairs by in-node: node u's out-edges are
// pairs[off[u]:off[u+1]].
func (g *keyGraph) file(ctx context.Context, sc *scratch) error {
	n := len(g.f)
	keys, steps := sc.t.reset(g, 2*n), 0
	ends := sized(sc.ends, 2*n) // ends[p] = in(p), ends[n+p] = out(p)
	for e := range ends {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		ends[e] = keys.add(cand{int32(e % n), int32(e / n)})
	}
	off, pairs := sized(sc.off, len(keys.ids)+1), sized(sc.pairs, n)
	sc.ends, sc.off, sc.pairs = ends, off, pairs
	clear(off)
	for _, u := range ends[:n] {
		off[u]++
	}
	for u := range len(keys.ids) {
		off[u+1] += off[u]
	}
	for p := n - 1; p >= 0; p-- {
		off[ends[p]]--
		pairs[off[ends[p]]] = int32(p)
	}
	return nil
}

// each yields, for each node u, R's own pairs from u, then the product
// named (u, w) for every w that a path of two or more pairs reaches: one
// breadth-first search from u's successors, yielded only once reached,
// over one stamp array. An own pair equal to its p/p is yielded once.
func (g *keyGraph) each(ctx context.Context, sc *scratch, yield func(cand)) error {
	d, off, pairs, out, steps := g.d, sc.off, sc.pairs, sc.ends[len(g.f):], 0
	stamp := sized(sc.stamp, len(off)-1) // node → u+1 once the search from u reached it, −(u+1) while only a seed
	sc.stamp = stamp
	clear(stamp)
	for u := range stamp {
		from, s := pairs[off[u]:off[u+1]], int32(u+1)
		sc.queue = sc.queue[:0]
		for _, p := range from {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			yield(cand{-1, p})
			if v := out[p]; stamp[v] != -s {
				stamp[v], sc.queue = -s, append(sc.queue, p)
			}
		}
		seeds := len(sc.queue)
		for i := 0; i < len(sc.queue); i++ {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			v := out[sc.queue[i]]
			for _, p := range pairs[off[v]:off[v+1]] {
				if w := out[p]; stamp[w] != s {
					stamp[w], sc.queue = s, append(sc.queue, p)
				}
			}
		}
		for _, p := range from { // (in(p), out(p)) names p/p: drop it when it is p
			if v := out[p]; stamp[v] == s {
				var n, m int
				sc.a, n = d.runs(sc.a[:0], cand{-1, p}, false)
				if sc.b, m = g.derive(sc.b[:0], cand{p, p}); n == m && slices.EqualFunc(sc.a, sc.b, memberEqual) {
					stamp[v] = 0
				}
			}
		}
		for _, p := range sc.queue[seeds:] {
			if stamp[out[p]] == s {
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
