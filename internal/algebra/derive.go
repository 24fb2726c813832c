package algebra

import (
	"context"
	"slices"

	"xst/internal/core"
)

// digestMask is the digest bits the join and the derivation table use;
// tests narrow it to force collisions.
var digestMask = ^uint64(0)

// cand names a candidate output by the ids it is derived from: a probe
// and a build member of a relative product, a member of a σ-domain's R,
// the first and last pair of a closure path (or a pair and the side of
// its join key). A first id of -1 names the kernel's own member c[1].
type cand [2]int32

// Derived is a kernel run's outputs, derived but not built: its source
// yields the candidates, ids only, and derives one into the canonical
// members of its element, then of its scope, in scratch. Set builds the
// outputs once; Card counts their distinct elements and builds nothing.
// Each finish takes one scratch when it starts and puts it back when it
// returns, so a Derived holds no working memory between finishes.
type Derived struct {
	src      source
	own      []core.Member
	distinct bool // src yields every output once, all unscoped: no two share an element
}

// source is a kernel's operands. file files into sc what each walks (a
// build side, a graph), once per finish; each yields the candidates,
// polling ctx, and may repeat an output unless the Derived is distinct;
// derive derives one.
type source interface {
	file(ctx context.Context, sc *scratch) error
	each(ctx context.Context, sc *scratch, yield func(cand)) error
	derive(dst []core.Member, c cand) ([]core.Member, int)
}

// runs derives c's element and scope, or reads an own member's — a
// scope that is not a set as one member twice, a run no set has — and
// returns them and the element's length.
func (d *Derived) runs(dst []core.Member, c cand, elemOnly bool) ([]core.Member, int) {
	n := 0
	if c[0] >= 0 {
		dst, n = d.src.derive(dst, c)
	} else {
		m := d.own[c[1]]
		dst = append(dst, m.Elem.(*core.Set).Members()...)
		n = len(dst)
		if s, ok := m.Scope.(*core.Set); ok {
			dst = append(dst, s.Members()...)
		} else {
			dst = append(dst, core.Member{Elem: m.Scope, Scope: core.Empty()}, core.Member{Elem: m.Scope, Scope: core.Empty()})
		}
	}
	if elemOnly {
		return dst[:n], n
	}
	return dst, n
}

// key is the count table's key of c: its element.
func (d *Derived) key(dst []core.Member, c cand) ([]core.Member, int) { return d.runs(dst, c, true) }

// Set builds the outputs: one pass sizes the member list and the slab
// the result keeps, a second fills them, and OwnSet sorts the list,
// dropping a duplicate the sort makes adjacent.
func (d *Derived) Set(ctx context.Context) (*core.Set, error) {
	sc := getScratch()
	defer putScratch(sc)
	if err := d.src.file(ctx, sc); err != nil {
		return nil, err
	}
	n, sets, members := 0, 0, 0
	err := d.src.each(ctx, sc, func(c cand) {
		if n++; c[0] >= 0 {
			var k int
			sc.m, k = d.src.derive(sc.m[:0], c)
			sets, members = sets+min(k, 1)+min(len(sc.m)-k, 1), members+len(sc.m)
		}
	})
	if err != nil {
		return nil, err
	}
	slab, out := core.NewSlab(sets, members), make([]core.Member, 0, n)
	err = d.src.each(ctx, sc, func(c cand) {
		if c[0] < 0 {
			out = append(out, d.own[c[1]])
			return
		}
		var k int
		sc.m, k = d.src.derive(sc.m[:0], c)
		out = append(out, core.Member{Elem: slab.Set(sc.m[:k]), Scope: slab.Set(sc.m[k:])})
	})
	if err != nil {
		return nil, err
	}
	return core.OwnSet(out), nil
}

// Card is core.Card of the set Set would build: the number of outputs
// when they are distinct, else of candidates filed by element, in one
// pass.
func (d *Derived) Card(ctx context.Context) (int, error) {
	sc := getScratch()
	defer putScratch(sc)
	if err := d.src.file(ctx, sc); err != nil {
		return 0, err
	}
	if d.distinct {
		n := 0
		err := d.src.each(ctx, sc, func(cand) { n++ })
		return n, err
	}
	t := sc.t.reset(d, 0)
	err := d.src.each(ctx, sc, func(c cand) { t.add(c) })
	return len(t.ids), err
}

// table files candidates under the digest of their key and keeps only
// their ids: each id a chain walks is confirmed by deriving the filed
// candidate's key again and comparing members.
type table struct {
	keys   keyer
	chains core.Chains
	ids    []cand
	a, b   []core.Member
}

// keyer derives a candidate's key.
type keyer interface {
	key(dst []core.Member, c cand) ([]core.Member, int)
}

// reset empties t for candidates keyed by k, with room for n.
func (t *table) reset(k keyer, n int) *table {
	t.keys, t.ids = k, slices.Grow(t.ids[:0], n)
	t.chains.Reset(n)
	return t
}

// add files c unless a candidate with the same key is filed, and returns
// the filed one's index.
func (t *table) add(c cand) int32 {
	var n, m int
	t.a, n = t.keys.key(t.a[:0], c)
	h := keyDigest(t.a, n) & digestMask
	for id := t.chains.First(h); id >= 0; id = t.chains.Next(id) {
		if t.b, m = t.keys.key(t.b[:0], t.ids[id]); m == n && slices.EqualFunc(t.a, t.b, memberEqual) {
			return id
		}
	}
	t.chains.Add(h)
	t.ids = append(t.ids, c)
	return int32(len(t.ids) - 1)
}

// tick counts a step and returns ctx.Err() every ctxCheckEvery steps.
func tick(ctx context.Context, steps *int) error {
	if *steps++; *steps%ctxCheckEvery == 0 {
		return ctx.Err()
	}
	return nil
}
