package xtest

import (
	"context"

	"xst/internal/core"
	"xst/internal/table"
)

// Poison is what PoisonScratch writes over a batch's boxed values once
// its successor has been asked for: any result that shows it was
// computed from rows an operator kept past its pull. PoisonInt and
// PoisonByte are what it writes over the unboxed integers and string
// bytes.
const (
	Poison     = core.Str("xtest: scratch row read after the next Next")
	PoisonInt  = -0x5c7a7c4_0000_0bad
	PoisonByte = '#'
)

// operator is exec.Operator, spelled with type parameters for the two
// types of package exec it mentions (OpStats, and Operator itself):
// xtest sits below exec in the import graph — the tests of index,
// which exec imports, use it — so it cannot name them.
type operator[S, Self any] interface {
	Open(ctx context.Context) error
	Next() (*table.Batch, error)
	Close() error
	OutSchema() table.Schema
	Stats() S
	Children() []Self
	String() string
}

// PoisonScratch wraps an operator whose batches are scratch and
// enforces the ownership rule the hard way: on every Next it first
// overwrites the batch it returned last time — every integer of its int
// columns with PoisonInt, every byte of its string slabs with
// PoisonByte, every boxed value with Poison — and only then pulls the
// next one. A consumer that copied
// what it needed never notices; one that kept a batch, a column or a
// string aliasing the slab past its pull computes on poison, so a
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
	prev *table.Batch
}

// Open implements exec.Operator.
func (p *Poisoned[S, O]) Open(ctx context.Context) error {
	p.prev = nil
	return p.op.Open(ctx)
}

// Next implements exec.Operator.
func (p *Poisoned[S, O]) Next() (*table.Batch, error) {
	if p.prev != nil {
		for c := range p.prev.Cols {
			col := &p.prev.Cols[c]
			for i := range col.Ints {
				col.Ints[i] = PoisonInt
			}
			for i := range col.Bytes {
				col.Bytes[i] = PoisonByte
			}
			for i := range col.Vals {
				col.Vals[i] = Poison
			}
		}
	}
	b, err := p.op.Next()
	p.prev = b
	return b, err
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
