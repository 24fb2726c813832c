package main

import (
	"reflect"
	"testing"
)

// statements draws the first n statements of one connection's stream,
// acknowledging each, with no database behind the world: drawing and
// the oracle answers need only the generated data.
func statements(sp *spec, seed uint64, conn, n int) []op {
	data := generate(sp, seed)
	w := &world{sp: sp, seed: seed, data: data, or: newOracle(sp, data)}
	s := newStream(sp, seed, conn)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next(w)
		s.ack(out[i], true)
		out[i].tmpl, out[i].chunk = nil, nil // compare what is sent and expected
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, full := range specs {
		sp := tiny(full)
		t.Run(sp.name, func(t *testing.T) {
			if a, b := generate(sp, 5).checksum(), generate(sp, 5).checksum(); a != b {
				t.Errorf("same seed, dataset checksums %x and %x", a, b)
			}
			if a, b := generate(sp, 5).checksum(), generate(sp, 6).checksum(); a == b {
				t.Errorf("seeds 5 and 6 give the same dataset checksum %x", a)
			}
			for conn := 0; conn < 3; conn++ {
				a, b := statements(sp, 5, conn, 300), statements(sp, 5, conn, 300)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("connection %d: same seed, different statement streams", conn)
				}
				if c := statements(sp, 6, conn, 300); reflect.DeepEqual(a, c) {
					t.Errorf("connection %d: seeds 5 and 6 give the same statement stream", conn)
				}
			}
			if a, b := statements(sp, 5, 0, 300), statements(sp, 5, 1, 300); reflect.DeepEqual(a, b) {
				t.Error("connections 0 and 1 draw the same statement stream")
			}
		})
	}
}
