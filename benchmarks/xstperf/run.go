package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// config is the shape of one run. main derives it from -seconds; the
// tests shrink it.
type config struct {
	sp    *spec
	cat   *catalogue
	seed  uint64
	trace bool
	// conns closed-loop connections, min(nproc, 4) from main.
	conns int
	// Untraced: `segments` timed segments of segLen each, after `setups`
	// complete set-ups of which the last one is measured on.
	// Traced: `segments` segments alternating untraced and traced, one
	// more with a single connection, then the layer replay within
	// replayBudget.
	segments     int
	segLen       time.Duration
	setups       int
	warm         time.Duration // discarded warm-up at the end of each set-up
	replayBudget time.Duration
	// extraChunks are loaded before the durability check (mixed_rw).
	extraChunks int
	tmpRoot     string
}

// planned is how long the run should take; the watchdog allows twice that.
func (c config) planned() time.Duration {
	return time.Duration(c.segments+1)*c.segLen + c.replayBudget + time.Duration(c.setups)*(c.warm+10*time.Second) + 20*time.Second
}

// environment is the block every report carries.
type environment struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Conns      int     `json:"conns"`
	PoolFrames int     `json:"pool_frames"`
	DataPages  int     `json:"data_pages"`
	Fsync      string  `json:"fsync"`
	SegmentS   float64 `json:"segment_s"`
	Segments   int     `json:"segments"`
	Setups     int     `json:"setups"`
	WarmS      float64 `json:"warm_s"`
}

// report is the full result of one run: one line of a baseline file.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Trace     bool              `json:"trace"`
	Env       environment       `json:"env"`
	Sizes     map[string]int    `json:"sizes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failure   string            `json:"first_failure,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Traced runs: mean self time per replayed statement by layer (µs,
	// server includes server.residual_us), and the largest of them.
	LayerSelfUS map[string]float64 `json:"layer_self_us,omitempty"`
	TopLayer    string             `json:"top_layer,omitempty"`
	// Traced runs: the spans of the first reportedStmts replayed
	// statements. Every recorded span is reduced to the layer metrics.
	Spans []span `json:"spans,omitempty"`
}

const reportedStmts = 20

// count adds a segment's statements and failures to the report.
func (r *report) count(seg *segment) {
	r.Attempted += seg.attempted
	r.Failed += seg.failed
	if r.Failure == "" {
		r.Failure = seg.firstFailure
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run executes one workload run and tears everything down again.
func run(cfg config) (rep *report, err error) {
	sp := cfg.sp
	why, ok := cfg.cat.why(sp.name)
	if !ok {
		return nil, fmt.Errorf("BENCHMARK.json does not declare the workload %s", sp.name)
	}
	rep = &report{
		Workload: sp.name, Why: why, Trace: cfg.trace, Sizes: sp.sizes(),
		Env: environment{
			Commit: commit(), Seed: cfg.seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Conns: cfg.conns, PoolFrames: sp.frames,
			Fsync:    map[string]string{"mem": "none (memory pager)", "file": "none (no log)", "durable": "on (every commit)"}[sp.storage],
			SegmentS: cfg.segLen.Seconds(), Segments: cfg.segments, Setups: cfg.setups, WarmS: cfg.warm.Seconds(),
		},
	}
	var w *world
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		if w, err = setup(sp, cfg.seed, cfg.conns, cfg.tmpRoot, cfg.warm); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if terr := w.teardown(); terr != nil {
			rep, err = nil, errors.Join(err, fmt.Errorf("teardown: %w", terr))
		}
	}()
	rep.Env.DataPages = w.db.WAL().Base().NumPages()

	var segs []*segment
	for i := 0; i < cfg.segments; i++ {
		segs = append(segs, w.runLoop(cfg.conns, cfg.segLen, cfg.trace && i%2 == 1))
	}
	streams := w.streams
	layer := vals{}
	if cfg.trace {
		rp, err := cfg.traceLayers(w, segs, layer, rep)
		if err != nil {
			return nil, err
		}
		streams = append(streams[:len(streams):len(streams)], rp.s)
	}
	for _, seg := range segs {
		rep.count(seg)
	}
	if sp.storage == "durable" {
		took, checked, missing, err := w.durability(streams, cfg.extraChunks)
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		rep.Attempted += checked
		rep.Failed += missing
		if missing > 0 && rep.Failure == "" {
			rep.Failure = fmt.Sprintf("%d acknowledged rows missing after recovery", missing)
		}
		layer["wal.recover_ms"] = val{ms(took), 1}
		layer["wal.recover_acked_missing"] = val{float64(missing), checked}
	}
	rep.Correct = rep.Failed == 0

	per := []vals{layer}
	for _, seg := range segs {
		per = append(per, seg.metrics())
	}
	if name := cfg.cat.undeclared(per); name != "" {
		return nil, fmt.Errorf("the run measured %s, which BENCHMARK.json does not declare", name)
	}
	if !cfg.trace {
		// The end-to-end metrics, and with them whatever layer metrics the
		// closed loop yields anyway: the report file keeps those, the
		// summary line drops them.
		rep.Metrics = aggregate(cfg.cat.all(), per)
		q1, med, q3 := quartiles(setupS)
		rep.Metrics["setup_s"] = metric{Value: med, Unit: "s", Q1: q1, Q3: q3, N: len(setupS)}
		return rep, nil
	}
	// The wall-clock metrics come from the untraced segments, every other
	// closed-loop metric from the traced ones; the replay, the
	// micro-measurements and the durability check give one value per run.
	for i, seg := range segs {
		for name := range per[i+1] {
			if untracedTiming[name] == seg.traced {
				delete(per[i+1], name)
			}
		}
	}
	rep.Metrics = aggregate(cfg.cat.PerLayer, per)
	return rep, nil
}

// traceLayers does what only a traced run does after its alternating
// segments: the tracing overhead, a one-connection segment, the layer
// replay and the micro-measurements. It counts the statements of those
// into rep and puts the metrics into layer.
func (cfg config) traceLayers(w *world, segs []*segment, layer vals, rep *report) (*replayer, error) {
	var plain, traced []float64
	for _, seg := range segs {
		if seg.traced {
			traced = append(traced, seg.opsPerS())
		} else {
			plain = append(plain, seg.opsPerS())
		}
	}
	_, medPlain, _ := quartiles(plain)
	_, medTraced, _ := quartiles(traced)
	layer["trace.overhead_share"] = val{1 - ratio(medTraced, medPlain), len(segs)}

	one := w.runLoop(1, cfg.segLen, false)
	rep.count(one)
	p50one := one.metrics()["client.p50_ms"]
	layer["client.p50_1conn_ms"] = p50one

	rp, err := newReplayer(w, cfg.conns)
	if err != nil {
		return nil, err
	}
	if err := rp.run(cfg.sp.replay, cfg.replayBudget); err != nil {
		return nil, err
	}
	rep.Attempted += len(rp.done)
	for _, s := range rp.spans {
		if s.Stmt <= reportedStmts {
			rep.Spans = append(rep.Spans, s)
		}
	}
	for name, v := range rp.metrics() {
		layer[name] = v
	}
	if cfg.sp.orders > 0 {
		const ranges = 1000
		share, err := rp.rangeIndexShare(ranges)
		if err != nil {
			return nil, err
		}
		layer["plan.range_index_share"] = val{share, ranges}
	}
	residual := p50one.v*1000 - us(rp.pipelineP50())
	layer["server.residual_us"] = val{residual, len(rp.done)}

	rep.LayerSelfUS = rp.layerSelf()
	rep.LayerSelfUS["server"] += residual
	for l, v := range rep.LayerSelfUS {
		if rep.TopLayer == "" || v > rep.LayerSelfUS[rep.TopLayer] {
			rep.TopLayer = l
		}
	}

	micro, err := w.micro()
	if err != nil {
		return nil, err
	}
	for name, v := range micro {
		layer[name] = v
	}
	return rp, nil
}
