package main

import (
	"os"
	"runtime"
	"testing"
)

// TestHygiene runs every workload, untraced and traced, as two 100 ms
// segments and checks what the run leaves behind: no goroutine, no
// listener (teardown itself dials the address and fails the run if it
// still accepts), no temp file. Together the runs must measure every
// metric BENCHMARK.json declares (run itself refuses to measure one it
// does not declare).
func TestHygiene(t *testing.T) {
	cat := declared(t)
	if len(cat.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(cat.Workloads), len(specs))
	}
	measured := map[string]bool{}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			name := sp.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, sp, trace)
				before := runtime.NumGoroutine()
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted == 0 {
					t.Errorf("attempted %d, failed %d: %s", rep.Attempted, rep.Failed, rep.Failure)
				}
				if leak := goroutineLeak(before); leak != "" {
					t.Error(leak)
				}
				left, err := os.ReadDir(cfg.tmpRoot)
				if err != nil || len(left) != 0 {
					t.Errorf("temp root not empty after the run: %v %v", left, err)
				}
				for _, d := range cat.EndToEnd {
					if rep.Metrics[d.Name].Value <= 0 && !trace {
						t.Errorf("end-to-end metric %s: reported %+v", d.Name, rep.Metrics[d.Name])
					}
				}
				for name := range rep.Metrics {
					measured[name] = true
				}
				if trace && sp.name == "point_lookup" && rep.Metrics["plan.index_path_share"].Value != 1 {
					t.Errorf("plan.index_path_share = %v, want 1", rep.Metrics["plan.index_path_share"].Value)
				}
				if trace && sp.storage == "durable" && rep.Metrics["wal.recover_acked_missing"].N == 0 {
					t.Error("the durability check did not run")
				}
			})
		}
	}
	for _, d := range cat.all() {
		// client.p99_ms needs 1000 samples in a segment, which 100 ms do not
		// always hold.
		if !measured[d.Name] && d.Name != "client.p99_ms" {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
}

// TestWatchdogStops checks that a stopped watchdog leaves no goroutine.
func TestWatchdogStops(t *testing.T) {
	before := runtime.NumGoroutine()
	watchdog(1 << 40)()
	if leak := goroutineLeak(before); leak != "" {
		t.Error(leak)
	}
}
