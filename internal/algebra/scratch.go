package algebra

import (
	"slices"
	"sync"

	"xst/internal/core"
)

// scratch is one finish's working memory. Set and Card take one off
// scratches when they start and put it back when they return, on
// success, error or cancellation, so a reused one keeps the room its
// arrays grew to. Its members are cleared at put, so the free list pins
// no set.
type scratch struct {
	join                                 core.Chains   // G filed by its ω1 key
	t                                    table         // a closure's join keys while it files, then Card's candidates
	key, probe, a, b, m                  []core.Member // a build key and the probe's; an own pair and its p/p; Set's output
	hits, ends, off, pairs, stamp, queue []int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// maxPooled is the most ids a scratch may have room for and go back:
// one huge count must not make every later count clear its heads.
const maxPooled = 1 << 14

func getScratch() *scratch {
	sc := scratches.Get().(*scratch)
	track(sc, true)
	return sc
}

func putScratch(sc *scratch) {
	track(sc, false)
	room, m := max(sc.join.Room(), sc.t.chains.Room()), core.Member{}
	if poisoned {
		m = core.Member{Elem: poisonVal, Scope: poisonVal}
		sc.join.Poison()
		sc.t.chains.Poison()
		fill(sc.t.ids[:cap(sc.t.ids)], cand{poisonID, poisonID})
	}
	for _, b := range [...][]core.Member{sc.key, sc.probe, sc.a, sc.b, sc.m, sc.t.a, sc.t.b} {
		fill(b[:cap(b)], m)
		room = max(room, cap(b))
	}
	for _, ids := range [...][]int32{sc.hits, sc.ends, sc.off, sc.pairs, sc.stamp, sc.queue} {
		if poisoned {
			fill(ids[:cap(ids)], poisonID)
		}
		room = max(room, cap(ids))
	}
	sc.t.keys = nil
	if room <= maxPooled {
		scratches.Put(sc)
	}
}

// sized is s at length n, on its own array when it has room; what it
// holds is left as it was.
func sized(s []int32, n int) []int32 { return slices.Grow(s[:0], n)[:n] }

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Poison mode, for tests (the xstpoison build tag): a scratch put back
// is overwritten with these sentinels and its chains point past their
// entries, and live tracks every scratch from get to put, so one taken
// or put back twice panics.
var (
	poisoned  bool
	poisonID  int32      = -0x0bad_0bad
	poisonVal core.Value = core.Str("algebra: scratch read after its finish returned")
	liveMu    sync.Mutex
	live      = map[*scratch]bool{} // scratch → taken
)

func track(sc *scratch, taken bool) {
	if poisoned {
		liveMu.Lock()
		defer liveMu.Unlock()
		if live[sc] == taken {
			panic("algebra: a scratch taken twice or put back twice")
		}
		live[sc] = taken
	}
}
