package exec

import (
	"sync"

	"xst/internal/core"
	"xst/internal/table"
)

// Operator working memory is recycled across statements. An operator
// takes what it holds for a run — an aggregate state, a hash build's
// rows and keyed tables, its output batches — off one free list per
// holder type at Open or first use, and puts it back at Close, setting
// its reference to nil, so a second Close or an Open → Close → Open
// never puts one holder back twice. A reused holder keeps the capacity
// of its arrays; one put back has its boxed values cleared, so a free
// list pins none.
var (
	aggStates   freeList[AggState]
	buildMems   freeList[buildMem]
	joinOuts    freeList[joinOut]
	batches     freeList[table.Batch]
	pageBatches freeList[table.PageBatch]
)

// freeList is a sync.Pool of *T: get takes a holder off it, or makes
// one, and put puts one back.
type freeList[T any] struct{ sync.Pool }

func (l *freeList[T]) get() *T {
	h, _ := l.Get().(*T)
	if h == nil {
		h = new(T)
	}
	track(h, true)
	return h
}

func (l *freeList[T]) put(h *T) {
	track(h, false)
	l.Put(h)
}

// getBatch takes an empty batch off its list.
func getBatch() *table.Batch {
	b := batches.get()
	b.Reset()
	return b
}

// putBatch scrubs b and puts it back; nil is a no-op.
func putBatch(b *table.Batch) {
	if b != nil {
		scrub(b)
		batches.put(b)
	}
}

// scrub scrubs every column b has room for.
func scrub(b *table.Batch) {
	for _, c := range b.Cols[:cap(b.Cols)] {
		scrubCol(&c)
	}
}

// scrubCol clears a column's boxed values, up to their capacity, or in
// poison mode overwrites all its values.
func scrubCol(c *table.Col) {
	scrubVals(c.Vals)
	if poisoned {
		fill(c.Ints[:cap(c.Ints)], poisonInt)
		fill(c.Bytes[:cap(c.Bytes)], '#')
	}
}

// scrubVals is scrubCol for boxed values.
func scrubVals(vals []core.Value) {
	var v core.Value
	if poisoned {
		v = poisonVal
	}
	fill(vals[:cap(vals)], v)
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Poison mode, for tests (SetPoisonRelease, or the xstpoison build
// tag): what is put back is overwritten with these sentinels, so a
// reader that kept it computes on them, and live tracks every holder
// from get to put, so one taken or put back twice panics.
var (
	poisoned  bool
	poisonInt int64      = -0x0bad_0bad_0bad
	poisonVal core.Value = core.Str("exec: memory read after its operator closed")
	liveMu    sync.Mutex
	live      = map[any]bool{} // holder → taken
)

// track records holder h as taken or put back, in poison mode.
func track(h any, taken bool) {
	if poisoned {
		liveMu.Lock()
		defer liveMu.Unlock()
		if live[h] == taken {
			panic("exec: a holder taken twice or put back twice")
		}
		live[h] = taken
	}
}
