// Command xstperf is the repository's performance benchmark: it boots
// the real query server in-process on 127.0.0.1:0, drives it over the
// wire protocol with seeded closed loops, checks every answer against
// an oracle, and prints the metrics named in BENCHMARK.json. See
// ../README.md for the catalogue.
//
//	xstperf -workload point_lookup -seed 42 -seconds 20 -trace 0
//	xstperf -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 42, "seed of the dataset and of every statement stream")
		seconds  = flag.Int("seconds", 20, "length of the timed part of the run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and layer replay, per-layer metrics")
		out      = flag.String("out", "", "append the full report (one JSON line) to this file")
		tmp      = flag.String("tmp", "", "directory for the run's temp dir (default: the system's)")
		compare  = flag.Bool("compare", false, "compare two report files: xstperf -compare a.json b.json")
		catPath  = flag.String("catalogue", "BENCHMARK.json", "the file that declares the workloads and the metrics with their units and bounds")
	)
	flag.Parse()
	cat, err := readCatalogue(*catPath)
	if err != nil {
		fatal(2, err.Error())
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: xstperf -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, cat, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sp := specByName(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "usage: xstperf -workload {"+strings.Join(workloadNames(), "|")+"} [-seed n] [-seconds n] [-trace 0|1]")
	}
	cfg := config{
		sp: sp, cat: cat, seed: *seed, trace: *trace == 1, conns: min(runtime.NumCPU(), 4),
		tmpRoot: *tmp, extraChunks: 200, warm: time.Second,
	}
	total := time.Duration(*seconds) * time.Second
	if cfg.trace {
		cfg.segments, cfg.segLen, cfg.setups, cfg.replayBudget = 6, total/10, 1, total*3/10
	} else {
		cfg.segments, cfg.segLen, cfg.setups = 5, total/5, 3
	}

	stop := watchdog(2 * cfg.planned())
	before := runtime.NumGoroutine()
	rep, err := run(cfg)
	if err != nil {
		fatal(1, err.Error())
	}
	if leak := goroutineLeak(before); leak != "" {
		fatal(1, leak)
	}
	stop()

	line, err := json.Marshal(rep)
	if err != nil {
		fatal(1, err.Error())
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fatal(1, err.Error())
		}
	}
	fmt.Println(string(line))
	fmt.Println(string(rep.summary(cat)))
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "xstperf:", msg)
	os.Exit(code)
}

// summary is the last line of standard output: exactly the keys the
// benchmark contract asks for. The contract wants every declared metric
// from every run, so one that does not apply to the workload reads 0.
func (r *report) summary(cat *catalogue) []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := cat.EndToEnd
	if r.Trace {
		defs = cat.PerLayer
	}
	ms := map[string]mv{}
	for _, d := range defs {
		ms[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	return line
}

// watchdog hard-exits the process if the run takes longer than limit,
// so a hang can never leave the benchmark running. The returned stop
// ends the watchdog goroutine and waits for it.
func watchdog(limit time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-quit:
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "xstperf: watchdog: run exceeded %v; goroutines:\n", limit)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			os.Exit(3)
		}
	}()
	return func() { close(quit); <-done }
}

// goroutineLeak waits up to a second for the goroutine count to return
// to what it was before the run booted anything, and otherwise returns
// a description with a stack dump.
func goroutineLeak(before int) string {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var b strings.Builder
			fmt.Fprintf(&b, "goroutine leak: %d before the run, %d after teardown\n", before, runtime.NumGoroutine())
			pprof.Lookup("goroutine").WriteTo(&b, 2)
			return b.String()
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ""
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
