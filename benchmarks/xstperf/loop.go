package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"xst/internal/server"
)

// span is one timed interval recorded by the benchmark itself. The spans
// of one statement share Stmt; Parent is the ID of the span that caused
// this one (-1 for the statement's root). Times are ns since the run began.
type span struct {
	Stmt   uint64 `json:"stmt"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var origin = time.Now()

func since(t time.Time) int64 { return t.Sub(origin).Nanoseconds() }

// sample is one statement that received its final response line.
type sample struct {
	lat   time.Duration // send → final line
	write bool
}

// counters is every cumulative count the layers expose through public
// accessors; a segment reports the difference of two snapshots.
type counters struct {
	alloc, mallocs            uint64
	cpu                       time.Duration // user + system time of the process
	srv                       server.Snapshot
	walAppends, walBytes      uint64
	begins, commits, aborts   uint64
	fsyncs, checkpoints       uint64
	fsyncTime, checkpointTime time.Duration
	superseded                int
	reclaimed                 uint64
	diskBytes                 int64
}

func (w *world) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	m := w.srv.Metrics()
	c := counters{
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		srv:        w.srv.MetricsSnapshot(),
		walAppends: m.WALAppends.Value(), walBytes: m.WALBytes.Value(),
		begins: m.TxnBegin.Value(), commits: m.TxnCommit.Value(), aborts: m.TxnAbort.Value(),
		fsyncs: m.WALFsync.Count(), fsyncTime: m.WALFsync.Sum(),
		checkpoints: m.CheckpointDur.Count(), checkpointTime: m.CheckpointDur.Sum(),
		superseded: w.db.Pool().SupersededImages(),
		reclaimed:  w.db.Pool().ReclaimedImages(),
	}
	if w.dir != "" {
		for _, p := range []string{w.pagePath(), w.logPath()} {
			if st, err := os.Stat(p); err == nil {
				c.diskBytes += st.Size()
			}
		}
	}
	return c
}

// segment is one timed stretch of the closed loop.
type segment struct {
	traced        bool
	elapsed       time.Duration
	attempted     int
	failed        int
	firstFailure  string
	samples       []sample
	userBytes     int64 // table.EncodeRow bytes of acknowledged loads
	before, after counters
	spans         []span
}

// check compares a final response with the oracle answer; rows and sum
// are what the client counted over the streamed batches. It returns ""
// or the reason the answer is wrong.
func (o *op) check(resp server.Response, rows int, sum uint64) string {
	if resp.Error != "" {
		return "error: " + resp.Error
	}
	switch o.tmpl.kind {
	case kindQuery:
		if resp.Rows != o.rows || rows != o.rows {
			return fmt.Sprintf("rows: final line says %d, streamed %d, want %d", resp.Rows, rows, o.rows)
		}
		if sum != o.sum {
			return fmt.Sprintf("checksum %x, want %x", sum, o.sum)
		}
	case kindEval:
		if resp.Result != o.result {
			return fmt.Sprintf("result %q, want %q", resp.Result, o.result)
		}
	case kindLoad:
		if !strings.HasPrefix(resp.Result, "events: ") {
			return fmt.Sprintf("load answered %q", resp.Result)
		}
	}
	return ""
}

// runLoop drives the first n connections as closed loops — each sends
// its next statement only after the previous final line has been read
// and verified — until dur has passed, then waits for all of them. The
// segment ends when the last in-flight statement has been answered.
func (w *world) runLoop(n int, dur time.Duration, traced bool) *segment {
	seg := &segment{traced: traced}
	parts := make([]segment, n)
	seg.before = w.snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.connLoop(i, &parts[i], start.Add(dur), traced)
		}(i)
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	seg.after = w.snapshot()
	for i := range parts {
		p := &parts[i]
		seg.attempted += p.attempted
		seg.failed += p.failed
		seg.userBytes += p.userBytes
		seg.samples = append(seg.samples, p.samples...)
		seg.spans = append(seg.spans, p.spans...)
		if seg.firstFailure == "" {
			seg.firstFailure = p.firstFailure
		}
	}
	return seg
}

func (w *world) connLoop(i int, part *segment, deadline time.Time, traced bool) {
	c, s := w.clients[i], w.streams[i]
	for time.Now().Before(deadline) {
		o := s.next(w)
		var first time.Time
		var rows int
		var sum uint64
		t0 := time.Now()
		resp, err := c.DoStream(server.Request{Stmt: o.text}, func(batch []string) error {
			if traced && first.IsZero() {
				first = time.Now()
			}
			rows += len(batch)
			for _, r := range batch {
				sum += hashRow(r)
			}
			return nil
		})
		end := time.Now()
		part.attempted++
		if err != nil {
			// The connection is unusable after a transport error.
			part.fail(o, "transport: "+err.Error())
			s.ack(o, false)
			return
		}
		why := o.check(resp, rows, sum)
		s.ack(o, why == "")
		if why != "" {
			part.fail(o, why)
		} else if o.tmpl.kind == kindLoad {
			part.userBytes += int64(o.bytes)
		}
		if traced {
			if first.IsZero() {
				first = end
			}
			id := uint64(i+1)<<48 | s.seq
			part.spans = append(part.spans,
				span{id, 0, -1, o.tmpl.name, since(t0), since(end)},
				span{id, 1, 0, "ttfb", since(t0), since(first)},
				span{id, 2, 0, "drain", since(first), since(end)})
		}
		part.samples = append(part.samples, sample{lat: end.Sub(t0), write: o.tmpl.kind == kindLoad})
	}
}

func (seg *segment) fail(o op, why string) {
	seg.failed++
	if seg.firstFailure == "" {
		text := o.text
		if len(text) > 120 {
			text = text[:120] + "…"
		}
		seg.firstFailure = fmt.Sprintf("%s: %s", text, why)
	}
}
