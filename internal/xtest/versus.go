package xtest

import (
	"testing"
	"time"
)

// Versus runs base and then variant once per benchmark iteration and
// reports each one's mean time (base-ns/op, variant-ns/op) and the
// speedup base/variant (x), which it returns for the benchmark to hold
// its claim against.
func Versus(b *testing.B, base, variant func()) float64 {
	b.Helper()
	var tb, tv time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		base()
		t1 := time.Now()
		variant()
		tb += t1.Sub(t0)
		tv += time.Since(t1)
	}
	b.ReportMetric(float64(tb)/float64(b.N), "base-ns/op")
	b.ReportMetric(float64(tv)/float64(b.N), "variant-ns/op")
	x := float64(tb) / float64(tv)
	b.ReportMetric(x, "x")
	return x
}
