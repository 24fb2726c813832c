// Package trace is the query-time span tracer: cheap, allocation-
// conscious timed regions ("spans") opened per query and per operator,
// linked parent→child so a finished query yields a span tree — the
// paper's one-algebra claim applied to the system itself: *where the
// time goes* (which σ-restriction, which composition, which page scan)
// is a first-class question the server can answer about a live
// workload, not something reconstructed by re-running queries.
//
// The design center is the disabled path. Every method is nil-safe: a
// nil *Span swallows Start/End/Add* as single nil checks, so
// instrumented code reads identically whether tracing is on or off and
// the off cost is one context lookup per query plus a nil test per
// call site — never a per-row or per-batch allocation. When tracing is
// on, each span is one small allocation; counters are plain fields
// written by the span's single owner goroutine, and only the
// parent→child attach (which concurrent Gather workers perform) takes
// a lock.
//
// Spans carry the executor's OpStats vocabulary — rows, batches,
// max-batch, held rows, bytes — so the span tree of a query subsumes
// EXPLAIN ANALYZE: plan.ExplainAnalyze renders from the same tree the
// slow-query log snapshots.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a query: the whole query, a phase
// (compile, admission, exec), one parallel worker, or — synthetically,
// after a tree drains — one operator. Counter methods must be called
// by the goroutine that owns the span; Start (child attach) is safe
// from any goroutine.
type Span struct {
	name    string
	id      uint64 // process-unique span id
	traceID string // inherited root→leaf; one per NewRoot
	start   time.Time
	durNs   int64

	// Counters, written by the owning goroutine, read after End.
	rows     int64
	batches  int64
	maxBatch int64
	held     int64
	bytes    int64
	estRows  int64
	epoch    int64 // commit epoch of the snapshot read (0 = unset)
	dop      int   // degree of parallelism (0 = unset)
	note     string

	mu       sync.Mutex
	children []*Span
}

// nextSpanID mints process-unique span ids; traceSeq distinguishes
// trace ids minted by this process.
var (
	nextSpanID atomic.Uint64
	traceSeq   atomic.Uint64
	traceEra   = uint64(time.Now().UnixNano())
)

// NewRoot opens a top-level span with a freshly minted trace id. End it
// before snapshotting.
func NewRoot(name string) *Span {
	tid := fmt.Sprintf("%x-%x", traceEra, traceSeq.Add(1))
	return NewRootTrace(name, tid)
}

// NewRootTrace opens a top-level span that joins an existing
// distributed trace: a federation site serving a fragment adopts the
// coordinator's trace id from the wire so every machine's spans carry
// the same trace identity.
func NewRootTrace(name, traceID string) *Span {
	return &Span{name: name, id: nextSpanID.Add(1), traceID: traceID, start: time.Now()}
}

// Start opens a child span under s. It is nil-safe — on a nil receiver
// it returns nil, and every Span method on that nil child is a no-op —
// and safe to call from concurrent worker goroutines.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, id: nextSpanID.Add(1), traceID: s.traceID, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ID reports the span's process-unique id (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID reports the distributed trace identity the span belongs to
// ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// End closes the span, fixing its duration. Idempotent in effect (a
// second End re-measures); ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.durNs = time.Since(s.start).Nanoseconds()
}

// EndErr closes the span and notes the error that ended it — the shape
// for spans covering fallible work (a remote fragment attempt, a dead
// site), whose failure must stay visible in the rendered tree. A nil
// error is a plain End.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.note = "error: " + err.Error()
	}
	s.durNs = time.Since(s.start).Nanoseconds()
}

// FinishNs closes a synthetic span with an externally measured
// duration (e.g. an operator's OpStats.Ns) instead of wall time since
// Start.
func (s *Span) FinishNs(ns int64) {
	if s == nil {
		return
	}
	s.durNs = ns
}

// AddRows adds to the span's row count.
func (s *Span) AddRows(n int) {
	if s == nil {
		return
	}
	s.rows += int64(n)
}

// AddBatches adds to the span's batch count.
func (s *Span) AddBatches(n int) {
	if s == nil {
		return
	}
	s.batches += int64(n)
}

// AddBytes adds to the span's byte count.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.bytes += n
}

// SetNote attaches a short free-form annotation (statement text, error).
func (s *Span) SetNote(note string) {
	if s == nil {
		return
	}
	s.note = note
}

// SetOpStats records an operator's drained counters on a synthetic
// span and closes it with the operator's inclusive time.
func (s *Span) SetOpStats(rows, batches, maxBatch, held int, ns int64) {
	if s == nil {
		return
	}
	s.rows = int64(rows)
	s.batches = int64(batches)
	s.maxBatch = int64(maxBatch)
	s.held = int64(held)
	s.FinishNs(ns)
}

// SetEstRows records the planner's cardinality estimate on a synthetic
// operator span, so rendered trees show estimated next to actual rows.
func (s *Span) SetEstRows(n int64) {
	if s == nil {
		return
	}
	s.estRows = n
}

// SetEpoch records the commit epoch of the snapshot the traced work read
// at, so slow entries are attributable to stale-snapshot reads.
func (s *Span) SetEpoch(epoch uint64) {
	if s == nil {
		return
	}
	s.epoch = int64(epoch)
}

// SetDOP records the degree of parallelism the traced query ran at.
func (s *Span) SetDOP(dop int) {
	if s == nil {
		return
	}
	s.dop = dop
}

// AttachSnapshot grafts a remote span tree under s as synthetic local
// spans: each node gets a fresh process-unique id (so a merged
// coordinator tree never carries duplicate ids, even across fragment
// retries) and inherits s's trace id, while keeping the remote
// durations, counters and notes. This is how a Remote operator folds a
// site's returned trace into the coordinator's tree.
func (s *Span) AttachSnapshot(snap SpanSnapshot) {
	if s == nil {
		return
	}
	c := &Span{
		name:     snap.Name,
		id:       nextSpanID.Add(1),
		traceID:  s.traceID,
		durNs:    snap.DurNS,
		rows:     snap.Rows,
		batches:  snap.Batches,
		maxBatch: snap.MaxBatch,
		held:     snap.Held,
		bytes:    snap.Bytes,
		estRows:  snap.EstRows,
		epoch:    snap.Epoch,
		dop:      snap.DOP,
		note:     snap.Note,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	for _, child := range snap.Children {
		c.AttachSnapshot(child)
	}
}

// SpanSnapshot is an immutable deep copy of a finished span tree —
// what the slow-query log stores and the `.trace` admin command
// returns as JSON.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	ID       uint64         `json:"id,omitempty"`
	TraceID  string         `json:"trace_id,omitempty"`
	DurNS    int64          `json:"dur_ns"`
	Rows     int64          `json:"rows,omitempty"`
	Batches  int64          `json:"batches,omitempty"`
	MaxBatch int64          `json:"max_batch,omitempty"`
	Held     int64          `json:"held,omitempty"`
	Bytes    int64          `json:"bytes,omitempty"`
	EstRows  int64          `json:"est_rows,omitempty"`
	Epoch    int64          `json:"epoch,omitempty"`
	DOP      int            `json:"dop,omitempty"`
	Note     string         `json:"note,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot deep-copies the span tree. Call after the query finished
// (every worker joined, every span ended); a nil span snapshots to the
// zero value.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	snap := SpanSnapshot{
		Name:     s.name,
		ID:       s.id,
		TraceID:  s.traceID,
		DurNS:    s.durNs,
		Rows:     s.rows,
		Batches:  s.batches,
		MaxBatch: s.maxBatch,
		Held:     s.held,
		Bytes:    s.bytes,
		EstRows:  s.estRows,
		Epoch:    s.epoch,
		DOP:      s.dop,
		Note:     s.note,
	}
	s.mu.Lock()
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Find returns the first span named name in a preorder walk of the
// snapshot, or nil.
func (s SpanSnapshot) Find(name string) *SpanSnapshot {
	if s.Name == name {
		return &s
	}
	for i := range s.Children {
		if m := s.Children[i].Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits the snapshot tree in preorder with depths.
func (s SpanSnapshot) Walk(fn func(sp SpanSnapshot, depth int)) {
	var rec func(sp SpanSnapshot, d int)
	rec = func(sp SpanSnapshot, d int) {
		fn(sp, d)
		for _, c := range sp.Children {
			rec(c, d+1)
		}
	}
	rec(s, 0)
}

// JSON renders the snapshot as one compact JSON line — the slow-query
// log format.
func (s SpanSnapshot) JSON() string {
	buf, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("{\"name\":%q,\"error\":\"unencodable span\"}", s.Name)
	}
	return string(buf)
}

// Render formats the snapshot as an indented tree for human eyes:
//
//	query                    2.1ms  note="from orders ..."
//	   compile               80µs
//	   exec                  1.9ms  rows=500 batches=2
func (s SpanSnapshot) Render() string {
	var b strings.Builder
	s.Walk(func(sp SpanSnapshot, depth int) {
		line := strings.Repeat("   ", depth) + sp.Name
		fmt.Fprintf(&b, "%-40s %8s", line, time.Duration(sp.DurNS).Round(time.Microsecond))
		if sp.Rows > 0 || sp.Batches > 0 {
			fmt.Fprintf(&b, "  rows=%d batches=%d", sp.Rows, sp.Batches)
		}
		if sp.Held > 0 {
			fmt.Fprintf(&b, " held=%d", sp.Held)
		}
		if sp.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", sp.Bytes)
		}
		if sp.Note != "" {
			fmt.Fprintf(&b, "  note=%q", sp.Note)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Tracer decides which queries get a span tree: 1-in-N sampling so an
// always-on trace has an explicit, tunable overhead. N == 0 disables
// sampling entirely, N == 1 traces every query.
type Tracer struct {
	every atomic.Int64
	seq   atomic.Uint64
}

// SetSample sets the sampling rate to 1-in-n (0 disables).
func (t *Tracer) SetSample(n int) {
	if n < 0 {
		n = 0
	}
	t.every.Store(int64(n))
}

// Sample reports whether the next query should be traced: every Nth
// call returns true. Safe for concurrent use; the disabled path is one
// atomic load.
func (t *Tracer) Sample() bool {
	n := t.every.Load()
	if n <= 0 {
		return false
	}
	return t.seq.Add(1)%uint64(n) == 0
}
