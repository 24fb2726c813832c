package core_test

import (
	"fmt"
	"math"
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// TestAppendTupleMatchesTupleString is the renderer's differential
// test: AppendTuple must print a row byte for byte as the tuple built
// from it prints — what the server sent per result row before it
// stopped building a set to print one. The literal `want` column pins
// the notation itself, so the two cannot drift together.
func TestAppendTupleMatchesTupleString(t *testing.T) {
	cases := []struct {
		row  []core.Value
		want string
	}{
		{nil, `{}`},
		{[]core.Value{}, `{}`},
		{[]core.Value{core.Int(7)}, `<7>`},
		{[]core.Value{core.Int(0), core.Int(-42), core.Int(math.MinInt64)}, `<0,-42,-9223372036854775808>`},
		{[]core.Value{core.Float(2), core.Float(-0.5), core.Float(1e21), core.Float(1e-7)}, `<2.0,-0.5,1e+21,1e-07>`},
		{[]core.Value{core.Float(math.Inf(1)), core.Float(math.Inf(-1)), core.Float(100)}, `<+Inf,-Inf,100.0>`},
		{[]core.Value{core.Str(""), core.Str(`say "hi"`), core.Str("tab\there\n"), core.Str("héllo ⟨x⟩")}, `<"","say \"hi\"","tab\there\n","héllo ⟨x⟩">`},
		{[]core.Value{core.Str("a,b"), core.Str("<1>")}, `<"a,b","<1>">`},
		{[]core.Value{core.Bool(true), core.Bool(false)}, `<true,false>`},
		{[]core.Value{core.Empty(), core.S(core.Int(2), core.Int(1))}, `<{},{1, 2}>`},
		{[]core.Value{core.Tuple(core.Int(1), core.Str("x")), core.Tuple()}, `<<1,"x">,{}>`},
		{[]core.Value{core.NewSet(core.M(core.Str("alice"), core.Str("name")))}, `<{"alice"^"name"}>`},
		{[]core.Value{core.Pair(core.Pair(core.Int(1), core.Int(2)), core.S(core.Float(3)))}, `<<<1,2>,{3.0}>>`},
	}
	for _, c := range cases {
		if got := string(core.AppendTuple(nil, c.row)); got != c.want {
			t.Errorf("AppendTuple(%v) = %s, want %s", c.row, got, c.want)
		}
		if got, via := string(core.AppendTuple(nil, c.row)), fmt.Sprint(core.Tuple(c.row...)); got != via {
			t.Errorf("AppendTuple(%v) = %s, but the tuple prints %s", c.row, got, via)
		}
	}

	// 2 000 random rows of atoms, floats and nested sets, into one
	// reused buffer the way the server uses it.
	r := xtest.NewRand(14)
	cfg := xtest.DefaultConfig()
	var buf []byte
	for i := 0; i < 2000; i++ {
		row := make([]core.Value, r.Intn(6))
		for j := range row {
			switch r.Intn(4) {
			case 0:
				row[j] = core.Float(float64(r.Intn(2000)-1000) / float64(1+r.Intn(8)))
			case 1:
				row[j] = core.Int(int64(r.Uint64()))
			default:
				row[j] = cfg.Value(r)
			}
		}
		buf = core.AppendTuple(buf[:0], row)
		if want := fmt.Sprint(core.Tuple(row...)); string(buf) != want {
			t.Fatalf("row %d: AppendTuple = %s, the tuple prints %s", i, buf, want)
		}
	}
}

// TestAppendTupleAllocatesNothingForAtoms: with a warmed buffer a row
// of atoms costs no allocation to render (its string is the caller's).
func TestAppendTupleAllocatesNothingForAtoms(t *testing.T) {
	row := []core.Value{core.Int(123456), core.Str("city-017"), core.Float(2.5), core.Bool(true)}
	buf := core.AppendTuple(nil, row)
	if got := testing.AllocsPerRun(100, func() { buf = core.AppendTuple(buf[:0], row) }); got != 0 {
		t.Fatalf("%v allocations per rendered row of atoms", got)
	}
}
