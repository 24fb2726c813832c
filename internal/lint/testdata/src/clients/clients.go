// Package clients exercises setmutate from outside internal/core: every
// way of mutating or retaining a canonical slice handed out by the
// (*core.Set) accessors.
package clients

import (
	"sort"

	"xst/internal/core"
)

type registry struct {
	keep []core.Member
}

func mutations(s *core.Set) {
	ms := s.Members()
	ms[0] = core.M(core.Int(1), core.Empty())            // want `write through the canonical slice from \(\*core.Set\).Members`
	ms[1].Elem = core.Int(2)                             // want `write through the canonical slice from \(\*core.Set\).Members`
	_ = append(ms, core.M(core.Int(3), core.Empty()))    // want `append writes into the canonical slice from \(\*core.Set\).Members`
	sort.Slice(ms, func(i, j int) bool { return false }) // want `in-place sort of the canonical slice from \(\*core.Set\).Members`

	elems := s.Elems()
	copy(elems, []core.Value{core.Int(4)}) // want `copy writes into the canonical slice from \(\*core.Set\).Elems`

	run := s.MembersOf(core.Int(1))
	run[0].Scope = core.Empty() // want `write through the canonical slice from \(\*core.Set\).MembersOf`
	core.Canonicalize(run)      // want `in-place sort of the canonical slice from \(\*core.Set\).MembersOf`
	var slab core.Slab
	slab.Set(ms) // want `in-place sort of the canonical slice from \(\*core.Set\).Members`

	s.Members()[0] = core.M(core.Int(5), core.Empty()) // want `write through the canonical slice from \(\*core.Set\).Members`
}

func retention(s *core.Set, r *registry, byKey map[int][]core.Value) {
	r.keep = s.Members() // want `canonical slice from \(\*core.Set\).Members retained in a field or map`
	byKey[1] = s.Elems() // want `canonical slice from \(\*core.Set\).Elems retained in a field or map`
}

func ownership(s *core.Set) *core.Set {
	own := s.CopyMembers()
	set := core.OwnSet(own)
	own[0] = core.M(core.Int(6), core.Empty()) // want `write through a slice already passed to OwnSet`
	_ = core.OwnSet(s.Members())               // want `canonical slice from \(\*core.Set\).Members passed to OwnSet`
	return set
}

func reslicedAliasStillCanonical(s *core.Set) {
	head := s.Members()
	tail := head[1:]
	tail[0] = core.M(core.Int(9), core.Empty()) // want `write through the canonical slice from \(\*core.Set\).Members`
}
