package index

import (
	"runtime"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
)

// The sizes of the benchmark's mixed_rw workload: a 200 000-key index
// that takes 50-row commits.
const (
	benchKeys  = 200_000
	benchDelta = 50
)

// benchIndex bulk-builds the base index, presized as BuildHash sizes it,
// over the values a stored integer column produces, and returns them.
func benchIndex() (*HashIndex, []core.Value) {
	h := NewHashIndex(benchKeys)
	keys := make([]core.Value, benchKeys)
	for i := range keys {
		keys[i] = core.Int(int64(i))
		h.Insert(keys[i], drid(i/100, i%100))
	}
	return h, keys
}

// freshDeltas returns n commits' worth of entries under keys the base
// index does not hold, boxed in advance as a committed row's are.
func freshDeltas(n int) [][]HashEntry {
	ds := make([][]HashEntry, n)
	for c := range ds {
		ds[c] = make([]HashEntry, benchDelta)
		for i := range ds[c] {
			k := benchKeys + c*benchDelta + i
			ds[c][i] = HashEntry{Key: core.Int(int64(k)), RID: drid(k/100, k%100)}
		}
	}
	return ds
}

var (
	sinkIndex *HashIndex
	sinkRIDs  []store.RID
)

// A commit's index maintenance must cost a constant — the new version's
// header — while it crosses no growth step, whatever the index's size;
// and the probe IndexScan makes must cost no allocation at all.
func TestHashAllocations(t *testing.T) {
	h, keys := benchIndex()
	const runs = 10
	ds := freshDeltas(runs + 1) // AllocsPerRun makes one warm-up call
	if room := len(h.tab.lay.Load().ents) - benchKeys; room < len(ds)*benchDelta {
		t.Fatalf("the presized table has room for %d more entries; the commits would cross a growth step", room)
	}
	cur, c := h, 0
	if got := testing.AllocsPerRun(runs, func() { cur = cur.WithInserts(ds[c]); c++ }); got > 2 {
		t.Errorf("WithInserts of %d entries on %d keys: %.0f allocations, want ≤ 2", benchDelta, benchKeys, got)
	}
	if want := benchKeys + len(ds)*benchDelta; cur.Len() != want || h.Len() != benchKeys {
		t.Fatalf("Len after %d commits: newest %d, want %d; base %d", len(ds), cur.Len(), want, h.Len())
	}
	if got := h.Probe(nil, ds[0][0].Key); got != nil {
		t.Fatalf("the base version sees a later commit's key: %v", got)
	}
	buf := make([]store.RID, 0, 4)
	i := 0
	if got := testing.AllocsPerRun(1000, func() { buf = cur.Probe(buf[:0], keys[i%benchKeys]); i += 7919 }); got != 0 {
		t.Errorf("Probe into a reused buffer: %.1f allocations, want 0", got)
	}
	if len(buf) != 1 {
		t.Fatalf("Probe found %d records for a unique key", len(buf))
	}
}

// BenchmarkHashWithInserts times one 50-entry commit on a 200 000-key
// index. Commits extend the newest version in place and, between growth
// steps, allocate only its header: more than 2 allocations per commit
// fails the benchmark. Each run of up to 4 096 commits starts on a copy
// of the base with room for all of them, so memory stays bounded and no
// run crosses a growth step.
func BenchmarkHashWithInserts(b *testing.B) {
	base, _ := benchIndex()
	ds := freshDeltas(1 << 12)
	var (
		before, after runtime.MemStats
		mallocs       uint64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		run := *base
		run.branch()
		if room := len(run.tab.lay.Load().ents) - benchKeys; room < len(ds)*benchDelta {
			b.Fatalf("the copy has room for %d entries, a run files up to %d", room, len(ds)*benchDelta)
		}
		n := min(b.N-done, len(ds))
		runtime.ReadMemStats(&before)
		b.StartTimer()
		cur := &run
		for _, d := range ds[:n] {
			cur = cur.WithInserts(d)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		done += n
		sinkIndex = cur
	}
	if perCommit := mallocs / uint64(b.N); perCommit > 2 {
		b.Fatalf("%d allocations per %d-entry commit, want ≤ 2", perCommit, benchDelta)
	}
}

// BenchmarkHashLookup times the string-keyed Lookup adapter the
// benchmark's index.hash_lookup_ns calls: decode, probe, and a fresh
// result slice.
func BenchmarkHashLookup(b *testing.B) {
	h, keys := benchIndex()
	enc := make([]string, len(keys))
	for i, k := range keys {
		enc[i] = core.Key(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRIDs = h.Lookup(enc[i*7919%benchKeys])
	}
}

// BenchmarkHashProbe times the probe IndexScan makes.
func BenchmarkHashProbe(b *testing.B) {
	h, keys := benchIndex()
	buf := make([]store.RID, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = h.Probe(buf[:0], keys[i*7919%benchKeys])
	}
	sinkRIDs = buf
}
