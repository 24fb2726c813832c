package server

import (
	"sync"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// queryLog tracks every statement the server is evaluating plus a
// bounded ring of recently finished ones — the state behind
// __sys.queries. Entries are cheap (one small struct per in-flight
// statement) and updates are field stores under the entry's own mutex,
// so the hot path pays two map operations and a handful of stores per
// statement.
type queryLog struct {
	mu     sync.Mutex
	nextID uint64
	active map[uint64]*liveQuery
	recent []*liveQuery
	next   int // ring write index
	n      int // entries written, capped at len(recent)
}

// liveQuery is one tracked statement. The query-serving goroutine owns
// the writes; __sys.queries readers snapshot under mu.
type liveQuery struct {
	mu    sync.Mutex
	qid   uint64
	stmt  string
	state string // "run", then "ok" or "err"
	phase string // compile, admission, exec, done
	start time.Time
	end   time.Time
	rows  int64
	dop   int
	epoch uint64
}

func newQueryLog(recent int) *queryLog {
	if recent <= 0 {
		recent = 1
	}
	return &queryLog{active: map[uint64]*liveQuery{}, recent: make([]*liveQuery, recent)}
}

// begin registers a statement as running and returns its entry.
func (l *queryLog) begin(stmt string) *liveQuery {
	l.mu.Lock()
	l.nextID++
	q := &liveQuery{qid: l.nextID, stmt: stmt, state: "run", phase: "start", start: time.Now()}
	l.active[q.qid] = q
	l.mu.Unlock()
	return q
}

// finish moves the entry from the active set to the recent ring.
func (l *queryLog) finish(q *liveQuery, failed bool) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.end = time.Now()
	q.phase = "done"
	if failed {
		q.state = "err"
	} else {
		q.state = "ok"
	}
	q.mu.Unlock()
	l.mu.Lock()
	delete(l.active, q.qid)
	l.recent[l.next] = q
	l.next = (l.next + 1) % len(l.recent)
	if l.n < len(l.recent) {
		l.n++
	}
	l.mu.Unlock()
}

// setPhase records which stage the statement is in.
func (q *liveQuery) setPhase(p string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.phase = p
	q.mu.Unlock()
}

// setExec records the admission outcome: worker tokens (DOP) and the
// commit epoch of the snapshot the statement reads at.
func (q *liveQuery) setExec(dop int, epoch uint64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.dop, q.epoch = dop, epoch
	q.mu.Unlock()
}

// addRows accumulates streamed result rows, visible mid-flight.
func (q *liveQuery) addRows(n int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.rows += int64(n)
	q.mu.Unlock()
}

// row renders the entry as one __sys.queries row.
func (q *liveQuery) row(now time.Time) table.Row {
	q.mu.Lock()
	defer q.mu.Unlock()
	end := q.end
	if end.IsZero() {
		end = now
	}
	return table.Row{
		core.Int(int64(q.qid)),
		core.Str(q.stmt),
		core.Str(q.state),
		core.Str(q.phase),
		core.Int(end.Sub(q.start).Microseconds()),
		core.Int(q.rows),
		core.Int(int64(q.dop)),
		core.Int(int64(q.epoch)),
	}
}

// rows snapshots the log as __sys.queries rows: in-flight statements
// first (ascending qid), then the recent ring oldest-first.
func (l *queryLog) rows() []table.Row {
	now := time.Now()
	l.mu.Lock()
	live := make([]*liveQuery, 0, len(l.active))
	for _, q := range l.active {
		live = append(live, q)
	}
	done := make([]*liveQuery, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.recent)
	}
	for i := 0; i < l.n; i++ {
		done = append(done, l.recent[(start+i)%len(l.recent)])
	}
	l.mu.Unlock()
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].qid > live[j].qid; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	out := make([]table.Row, 0, len(live)+len(done))
	for _, q := range live {
		out = append(out, q.row(now))
	}
	for _, q := range done {
		out = append(out, q.row(now))
	}
	return out
}
