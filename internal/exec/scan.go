package exec

import (
	"context"
	"time"

	"xst/internal/table"
)

// MorselScan is one scan worker: it claims heap pages (morsels) from a
// table.MorselSource and emits each page's rows as one batch (a 4 KiB
// page holds fewer than MaxBatchRows records), polling the context per
// page. N MorselScans over one source partition the table dynamically;
// one alone reads it in chain order. Each decodes into its own
// table.PageBatch, taken off the free list at Open and put back at
// Close, so its batches are scratch until its next Next; positions
// outside need are ColAbsent (see NewScan).
type MorselScan struct {
	src   *table.MorselSource
	need  []bool
	batch *table.PageBatch
	ctx   context.Context // nil while closed
	stats OpStats
}

// NewMorselScan returns a scan worker pulling from src, decoding the
// positions need marks (nil: all).
func NewMorselScan(src *table.MorselSource, need []bool) *MorselScan {
	return &MorselScan{src: src, need: need}
}

// Open implements Operator: it binds the worker to the source's run.
// The operator that owns the workers closes them together, so no run is
// rewound before every worker is done with it.
func (s *MorselScan) Open(ctx context.Context) error {
	s.stats = OpStats{}
	defer s.stats.timed(time.Now())
	if s.ctx == nil {
		s.src.Bind()
		s.batch = pageBatches.get()
	}
	s.ctx = ctx
	return ctx.Err()
}

// Next implements Operator: one claimed page per batch.
func (s *MorselScan) Next() (*table.Batch, error) {
	defer s.stats.timed(time.Now())
	if s.ctx == nil {
		return nil, errOpen(s)
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		b, err := s.src.Next(s.batch, s.need)
		if err != nil || b == nil {
			return nil, err
		}
		s.stats.RowsIn += b.Len
		if b.Len > 0 {
			s.stats.emitted(b)
			return b, nil
		}
	}
}

// Close implements Operator: releases the worker's part in the run.
func (s *MorselScan) Close() error {
	if s.ctx != nil {
		s.ctx = nil
		s.src.Release()
		scrub(s.batch.Batch())
		pageBatches.put(s.batch)
		s.batch = nil
	}
	return nil
}

// OutSchema implements Operator.
func (s *MorselScan) OutSchema() table.Schema { return s.src.Table().Schema() }

// Stats implements Operator.
func (s *MorselScan) Stats() OpStats { return s.stats }

// Children implements Operator.
func (s *MorselScan) Children() []Operator { return nil }

func (s *MorselScan) String() string { return "morselscan(" + s.src.Table().Schema().Name + ")" }

// Scan streams a stored table page batch by page batch — the pull form
// of the set-processing access path. It is the one-worker MorselScan,
// over a source of its own.
type Scan struct {
	MorselScan
	own table.MorselSource
}

// NewScan returns a scan operator over t that decodes the column
// positions need marks (nil: all) and leaves the others ColAbsent — the
// planner passes the positions the operators above it read.
func NewScan(t *table.Table, need []bool) *Scan {
	s := &Scan{MorselScan: MorselScan{need: need}}
	s.own.Init(t)
	s.src = &s.own
	return s
}

func (s *Scan) String() string { return "scan(" + s.src.Table().Schema().Name + ")" }
