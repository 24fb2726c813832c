package main

import (
	"runtime"
	"testing"
	"time"
)

// tiny is sp at a twentieth of its size, for tests about behaviour
// rather than speed.
func tiny(sp *spec) *spec {
	t := *sp
	t.users, t.orders, t.events = sp.users/20, sp.orders/20, sp.events/20
	t.pairs, t.domain = sp.pairs/10, sp.domain/10
	t.replay = 40
	return &t
}

// declared is the repository's BENCHMARK.json.
func declared(t *testing.T) *catalogue {
	t.Helper()
	cat, err := readCatalogue("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func tinyConfig(t *testing.T, sp *spec, trace bool) config {
	return config{
		sp: tiny(sp), cat: declared(t), seed: 7, trace: trace, conns: 2, segments: 2, segLen: 100 * time.Millisecond,
		setups: 1, warm: 20 * time.Millisecond, replayBudget: time.Second, extraChunks: 3, tmpRoot: t.TempDir(),
	}
}

// tinyWorld boots sp at tiny scale and tears it down with the test.
func tinyWorld(t *testing.T, sp *spec) *world {
	t.Helper()
	before := runtime.NumGoroutine()
	w, err := setup(tiny(sp), 7, 2, t.TempDir(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.teardown(); err != nil {
			t.Error(err)
		}
		if leak := goroutineLeak(before); leak != "" {
			t.Error(leak)
		}
	})
	return w
}
