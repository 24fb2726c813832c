package index

import (
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

// benchIndex bulk-builds the base index over the keys a stored integer
// column produces, and the delta one commit of fresh rows appends.
func benchIndex() (*HashIndex, []string, []Entry) {
	h := NewHashIndex()
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = core.Key(core.Int(int64(i)))
		h.Insert(keys[i], drid(i/100, i%100))
	}
	delta := make([]Entry, benchDelta)
	for i := range delta {
		delta[i] = Entry{Key: core.Key(core.Int(int64(benchKeys + i))), RID: drid(benchKeys/100, i)}
	}
	return h, keys, delta
}

var (
	sinkIndex *HashIndex
	sinkRIDs  []store.RID
	sinkLen   int
)

// A commit's index maintenance must cost the delta, not the index, and
// a probe must cost no allocation at all.
func TestHashAllocations(t *testing.T) {
	h, keys, delta := benchIndex()
	if got := testing.AllocsPerRun(10, func() { sinkIndex = h.WithInserts(delta) }); got >= 2000 {
		t.Errorf("WithInserts of %d entries on %d keys: %.0f allocations, want < 2000", benchDelta, benchKeys, got)
	}
	if sinkIndex.Len() != benchKeys+benchDelta || h.Len() != benchKeys {
		t.Fatalf("Len after WithInserts: successor %d, base %d", sinkIndex.Len(), h.Len())
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() { sinkRIDs = h.Lookup(keys[i%benchKeys]); i += 7919 }); got != 0 {
		t.Errorf("Lookup: %.1f allocations, want 0", got)
	}
	// The way exec.IndexScan probes: the key is a temporary, and Lookup
	// must not make it escape to the heap.
	encode := testing.AllocsPerRun(1000, func() { sinkLen = len(core.Key(core.Int(int64(i % benchKeys)))); i += 7919 })
	probe := testing.AllocsPerRun(1000, func() { sinkRIDs = h.Lookup(core.Key(core.Int(int64(i % benchKeys)))); i += 7919 })
	if probe > encode {
		t.Errorf("Lookup of a temporary key: %.1f allocations, encoding it alone takes %.1f", probe, encode)
	}
}

func BenchmarkHashWithInserts(b *testing.B) {
	h, _, delta := benchIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex = h.WithInserts(delta)
	}
}

func BenchmarkHashLookup(b *testing.B) {
	h, keys, _ := benchIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRIDs = h.Lookup(keys[i*7919%benchKeys])
	}
}
