package exec_test

import (
	"math"
	"sort"

	"xst/internal/core"
	"xst/internal/table"
)

// The two-map keying HashJoin, HashBuild, AggState and Distinct used
// before every hash operator filed its keys through core.Chains, kept
// (renamed) as the oracle the keyed tables are differentially tested
// against (keyed_test.go): atom keys in a map keyed by a comparable
// struct, set keys in a second map keyed by their canonical encoding,
// and Distinct's seen-set keyed by the encoded row.

// refAtomKey is a comparable key covering the four atom kinds: for
// atoms a and b, refAtomKey(a) == refAtomKey(b) iff Equal(a, b).
type refAtomKey struct {
	kind core.Kind
	num  uint64 // Bool/Int payload; Float bits with -0.0 normalized, as in Key
	str  string // Str payload
}

// refAtomKeyOf returns v's refAtomKey and ok=true when v is an atom.
func refAtomKeyOf(v core.Value) (refAtomKey, bool) {
	switch x := v.(type) {
	case core.Bool:
		var n uint64
		if x {
			n = 1
		}
		return refAtomKey{kind: core.KindBool, num: n}, true
	case core.Int:
		return refAtomKey{kind: core.KindInt, num: uint64(int64(x))}, true
	case core.Float:
		bits := math.Float64bits(float64(x))
		if x == 0 {
			bits = 0
		}
		return refAtomKey{kind: core.KindFloat, num: bits}, true
	case core.Str:
		return refAtomKey{kind: core.KindString, str: string(x)}, true
	}
	return refAtomKey{}, false
}

// refRows is one build table: rows by key, atoms and sets apart.
type refRows struct {
	atoms map[refAtomKey][]table.Row
	sets  map[string][]table.Row
}

func newRefRows() *refRows {
	return &refRows{atoms: map[refAtomKey][]table.Row{}, sets: map[string][]table.Row{}}
}

func (t *refRows) add(k core.Value, r table.Row) {
	if ak, ok := refAtomKeyOf(k); ok {
		t.atoms[ak] = append(t.atoms[ak], r)
	} else {
		ek := core.Key(k)
		t.sets[ek] = append(t.sets[ek], r)
	}
}

func (t *refRows) lookup(k core.Value) []table.Row {
	if ak, ok := refAtomKeyOf(k); ok {
		return t.atoms[ak]
	}
	return t.sets[core.Key(k)]
}

// refHashJoin joins probe rows to build rows on probe[pcol] =
// build[bcol] through parts build tables, a row's partition picked by
// its key's digest (one part is HashJoin, several are HashBuild), and
// returns probe ++ build rows.
func refHashJoin(probe, build []table.Row, pcol, bcol, parts int) []table.Row {
	tabs := make([]*refRows, parts)
	for i := range tabs {
		tabs[i] = newRefRows()
	}
	part := func(k core.Value) *refRows { return tabs[core.Digest(k)%uint64(parts)] }
	for _, r := range build {
		part(r[bcol]).add(r[bcol], r)
	}
	var out []table.Row
	for _, pr := range probe {
		for _, br := range part(pr[pcol]).lookup(pr[pcol]) {
			out = append(out, append(append(table.Row{}, pr...), br...))
		}
	}
	return out
}

// refGroup is one group of an integer column: its count, sum, min, max.
type refGroup struct {
	key        core.Value
	count, sum int64
	min, max   core.Value
}

// refGroups is one partial aggregate state: groups by key, atoms and
// sets apart.
type refGroups struct {
	atoms map[refAtomKey]*refGroup
	sets  map[string]*refGroup
}

func (s *refGroups) group(k core.Value) *refGroup {
	if ak, ok := refAtomKeyOf(k); ok {
		if s.atoms[ak] == nil {
			s.atoms[ak] = &refGroup{key: k}
		}
		return s.atoms[ak]
	}
	ek := core.Key(k)
	if s.sets[ek] == nil {
		s.sets[ek] = &refGroup{key: k}
	}
	return s.sets[ek]
}

func (g *refGroup) fold(count, sum int64, lo, hi core.Value) {
	g.count += count
	g.sum += sum
	if g.min == nil || core.Compare(lo, g.min) < 0 {
		g.min = lo
	}
	if g.max == nil || core.Compare(hi, g.max) > 0 {
		g.max = hi
	}
}

// refGroupAgg groups each part's rows on keyCol into its own state,
// merges the states, and returns (key, count, sum, min, max) of the
// integer column valCol per group, in canonical key order.
func refGroupAgg(parts [][]table.Row, keyCol, valCol int) []table.Row {
	all := &refGroups{atoms: map[refAtomKey]*refGroup{}, sets: map[string]*refGroup{}}
	for _, rows := range parts {
		st := &refGroups{atoms: map[refAtomKey]*refGroup{}, sets: map[string]*refGroup{}}
		for _, r := range rows {
			v := r[valCol]
			st.group(r[keyCol]).fold(1, int64(v.(core.Int)), v, v)
		}
		for _, g := range st.atoms {
			all.group(g.key).fold(g.count, g.sum, g.min, g.max)
		}
		for _, g := range st.sets {
			all.group(g.key).fold(g.count, g.sum, g.min, g.max)
		}
	}
	var out []table.Row
	for _, g := range all.atoms {
		out = append(out, table.Row{g.key, core.Int(g.count), core.Int(g.sum), g.min, g.max})
	}
	for _, g := range all.sets {
		out = append(out, table.Row{g.key, core.Int(g.count), core.Int(g.sum), g.min, g.max})
	}
	sort.Slice(out, func(i, j int) bool { return core.Compare(out[i][0], out[j][0]) < 0 })
	return out
}

// refDistinct keeps the first row of each encoding, in input order.
func refDistinct(rows []table.Row) []table.Row {
	seen := map[string]bool{}
	var out []table.Row
	for _, r := range rows {
		k := string(table.EncodeRow(nil, r))
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
