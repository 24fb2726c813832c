package plan

import (
	"sync"

	"xst/internal/core"
	"xst/internal/stats"
)

// Statement templates (DESIGN.md, "Statement templates"): a plan is
// optimized once per statement shape, key of its literals and catalog
// version, and a repeat binds its own literals into it.

// maxTemplates bounds the templates one version keeps and maxSlots the
// literals a cached statement has; past either it compiles uncached.
const maxTemplates, maxSlots = 256, 4

type templates struct {
	mu     sync.RWMutex
	shapes map[string]*shape
	n      int
}

// shape is one statement shape: the column each literal is compared
// with, its statistics, and a template per key.
type shape struct {
	slots [maxSlots]struct {
		col string
		cs  stats.ColumnStats
		eq  bool // an (in)equality, whose estimate reads only Min and Max
	}
	n     int
	tmpls []template
	first [1]template // backs tmpls until a second key, so a first miss allocates no slice
}

type template struct {
	key  [maxSlots + 1]uint64
	vals [maxSlots]core.Value // the literals root was optimized with
	root Node
}

// key is each literal's estimate class and the order of each pair of
// literals on one column: all that optimization reads of a literal.
func (sh *shape) key(vals []core.Value) (k [maxSlots + 1]uint64) {
	for i, s := range sh.slots[:sh.n] {
		if k[i] = s.cs.Class(vals[i]); s.eq {
			k[i] &^= 1<<32 - 1
		}
		for j := range i {
			if sh.slots[j].col == s.col {
				k[maxSlots] = k[maxSlots]<<2 | uint64(core.Compare(vals[j], vals[i])+1)
			}
		}
	}
	return k
}

// Bind returns the plan cached for statement shape key and the key of
// vals, with vals in place of the literals it was optimized with, or
// false. It copies the nodes on the path to each literal.
func (c *Catalog) Bind(key []byte, vals []core.Value) (Node, bool) {
	c.plans.mu.RLock()
	defer c.plans.mu.RUnlock()
	if sh := c.plans.shapes[string(key)]; sh != nil {
		k := sh.key(vals)
		for i := range sh.tmpls {
			if t := &sh.tmpls[i]; t.key == k {
				b := binder{sh: sh, from: t.vals[:], to: vals, ok: true}
				return b.bind(t.root), b.ok
			}
		}
	}
	return nil, false
}

// Remember caches optimized, the plan OptimizeCatalog made of a
// statement whose where clause compares columns with vals in order,
// under statement shape key.
func (c *Catalog) Remember(key []byte, where *Select, optimized Node, vals []core.Value) {
	c.plans.mu.Lock()
	defer c.plans.mu.Unlock()
	if c.plans.n >= maxTemplates {
		return
	}
	sh := c.plans.shapes[string(key)]
	if sh == nil {
		if sh = c.shapeOf(where, vals); sh == nil {
			return
		}
		if c.plans.shapes == nil {
			c.plans.shapes = map[string]*shape{}
		}
		c.plans.shapes[string(key)] = sh
	}
	t := template{key: sh.key(vals), root: optimized}
	for _, o := range sh.tmpls {
		if o.key == t.key {
			return
		}
	}
	copy(t.vals[:], vals)
	sh.tmpls, c.plans.n = append(sh.tmpls, t), c.plans.n+1
}

func (c *Catalog) shapeOf(where *Select, vals []core.Value) *shape {
	var conj And
	if where != nil {
		if conj, _ = where.Pred.(And); conj == nil {
			conj = And{where.Pred}
		}
	}
	if len(vals) > maxSlots || len(conj) != len(vals) {
		return nil
	}
	sh := &shape{n: len(vals)}
	sh.tmpls = sh.first[:0]
	for i, p := range conj {
		cmp, ok := p.(Cmp)
		if !ok || core.Compare(cmp.Val, vals[i]) != 0 {
			return nil
		}
		s := &sh.slots[i]
		s.col, s.eq = cmp.Col, cmp.Op == Eq || cmp.Op == Ne
		s.cs, _ = c.columnStats(where.Child, cmp.Col)
	}
	return sh
}

// binder copies a template's plan with literals to in place of from.
type binder struct {
	sh       *shape
	from, to []core.Value
	ok       bool
}

// val is the literal to bind for v on col. Literals on one column that
// are equal under one key stay equal, so any of them will do.
func (b *binder) val(col string, v core.Value) core.Value {
	for j, s := range b.sh.slots[:b.sh.n] {
		if s.col == col && core.Compare(v, b.from[j]) == 0 {
			return b.to[j]
		}
	}
	b.ok = false
	return v
}

func (b *binder) pred(p Pred) Pred {
	if a, ok := p.(And); ok {
		out := make(And, len(a))
		for i, q := range a {
			out[i] = b.pred(q)
		}
		return out
	}
	cmp, ok := p.(Cmp)
	b.ok = b.ok && ok
	cmp.Val = b.val(cmp.Col, cmp.Val)
	return cmp
}

func (b *binder) bind(n Node) Node {
	switch m := withChildren(n, b.bind).(type) {
	case *Select:
		c := *m
		c.Pred = b.pred(m.Pred)
		return &c
	case *IndexAccess:
		c := *m
		for _, v := range [...]*core.Value{&c.Eq, &c.Lo, &c.Hi} {
			if *v != nil {
				*v = b.val(m.Idx.Col, *v)
			}
		}
		return &c
	default:
		return m
	}
}
