package core

import "testing"

// BenchmarkSetConstructionBuilder vs BenchmarkSetConstructionUnion is
// the canonical-construction ablation: one sort at the end versus
// repeated canonicalization.
func BenchmarkSetConstructionBuilder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(256)
		for j := 0; j < 256; j++ {
			bd.AddClassical(Int(j * 7 % 256))
		}
		if bd.Set().Len() != 256 {
			b.Fatal("bad set")
		}
	}
}

func BenchmarkSetConstructionUnion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Empty()
		for j := 0; j < 256; j++ {
			s = Union(s, S(Int(j*7%256)))
		}
		if s.Len() != 256 {
			b.Fatal("bad set")
		}
	}
}
