package xtest

import (
	"context"

	"xst/internal/core"
	"xst/internal/table"
)

// Poison is what PoisonScratch writes over a batch once its successor
// has been asked for: any result that shows it was computed from rows
// an operator kept past its pull.
const Poison = core.Str("xtest: scratch row read after the next Next")

// operator is exec.Operator, spelled with type parameters for the two
// types of package exec it mentions (OpStats, and Operator itself):
// xtest sits below exec in the import graph — the tests of xsp and
// index, which exec imports, use it — so it cannot name them.
type operator[S, Self any] interface {
	Open(ctx context.Context) error
	Next() ([]table.Row, error)
	Close() error
	OutSchema() table.Schema
	Stats() S
	Children() []Self
	String() string
}

// PoisonScratch wraps an operator whose batches are scratch (anything
// that is not an exec.Retainer) and enforces the ownership rule the
// hard way: on every Next it first overwrites the batch it returned
// last time — each row header with nil, each value with Poison — and
// only then pulls the next one. A consumer that copied what it needed
// never notices; one that kept a row, a batch or a window of either
// past its pull computes on Poison or indexes a nil row, so a
// differential test fails loudly where it would otherwise pass on
// operators that happen to allocate fresh batches. Call it with an
// exec.Operator; the result is one, with the wrapped operator as its
// only child.
func PoisonScratch[S any, O operator[S, O]](op O) *Poisoned[S, O] {
	return &Poisoned[S, O]{op: op}
}

// Poisoned is the operator PoisonScratch returns.
type Poisoned[S any, O operator[S, O]] struct {
	op   O
	prev []table.Row
}

// Open implements exec.Operator.
func (p *Poisoned[S, O]) Open(ctx context.Context) error {
	p.prev = nil
	return p.op.Open(ctx)
}

// Next implements exec.Operator.
func (p *Poisoned[S, O]) Next() ([]table.Row, error) {
	for i, r := range p.prev {
		for j := range r {
			r[j] = Poison
		}
		p.prev[i] = nil
	}
	rows, err := p.op.Next()
	p.prev = rows
	return rows, err
}

// Close implements exec.Operator.
func (p *Poisoned[S, O]) Close() error { return p.op.Close() }

// OutSchema implements exec.Operator.
func (p *Poisoned[S, O]) OutSchema() table.Schema { return p.op.OutSchema() }

// Stats implements exec.Operator.
func (p *Poisoned[S, O]) Stats() S { return p.op.Stats() }

// Children implements exec.Operator: the wrapped operator, so tree
// walks still reach it and its counters.
func (p *Poisoned[S, O]) Children() []O { return []O{p.op} }

func (p *Poisoned[S, O]) String() string { return "poison(" + p.op.String() + ")" }
