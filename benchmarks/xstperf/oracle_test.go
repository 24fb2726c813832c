package main

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/plan"
	"xst/internal/server"
)

// TestOracleAgreement draws every template several times at tiny scale
// and checks that three independent routes agree with the oracle's
// plain-Go answer: the served response, the template's hand-built plan
// run by plan.ExecuteCtx, and the direct internal/algebra call. This is
// what makes a failed statement in a benchmark run mean something.
func TestOracleAgreement(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w := tinyWorld(t, sp)
			c, s := w.clients[0], w.streams[0]
			seen := map[*template]int{}
			for draws := 0; len(seen) < len(sp.templates) || draws < 60; draws++ {
				if draws > 5000 {
					t.Fatalf("templates drawn after %d statements: %d of %d", draws, len(seen), len(sp.templates))
				}
				o := s.next(w)
				if seen[o.tmpl]++; seen[o.tmpl] > 8 {
					s.ack(o, false)
					continue
				}
				var rows int
				var sum uint64
				resp, err := c.DoStream(server.Request{Stmt: o.text}, func(batch []string) error {
					rows += len(batch)
					for _, r := range batch {
						sum += hashRow(r)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				why := o.check(resp, rows, sum)
				s.ack(o, why == "")
				if why != "" {
					t.Errorf("served %s %q: %s", o.tmpl.name, o.text, why)
				}
				if o.tmpl.node != nil {
					got, _, err := plan.ExecuteCtx(context.Background(), o.tmpl.node(w, o))
					if err != nil {
						t.Fatal(err)
					}
					var psum uint64
					for _, r := range got {
						psum += hashRow(fmt.Sprint(r.Tuple()))
					}
					if len(got) != o.rows || psum != o.sum {
						t.Errorf("hand-built plan for %q: %d rows checksum %x, oracle %d rows checksum %x",
							o.text, len(got), psum, o.rows, o.sum)
					}
				}
				if o.tmpl.direct != nil {
					if got := fmt.Sprint(o.tmpl.direct(w, o)); got != o.result {
						t.Errorf("direct algebra call for %q: %s, oracle %s", o.text, got, o.result)
					}
				}
			}
		})
	}
}

// TestWrongAnswerIsCaught makes sure check is not vacuous.
func TestWrongAnswerIsCaught(t *testing.T) {
	w := tinyWorld(t, specByName("point_lookup"))
	o := w.streams[0].next(w)
	resp, err := w.clients[0].Do(server.Request{Stmt: o.text})
	if err != nil {
		t.Fatal(err)
	}
	if why := o.check(resp, o.rows, o.sum+1); why == "" {
		t.Error("a wrong checksum passed")
	}
	if why := o.check(resp, o.rows+1, o.sum); why == "" {
		t.Error("a wrong row count passed")
	}
	resp.Error = "boom"
	if why := o.check(resp, o.rows, o.sum); why == "" {
		t.Error("an error response passed")
	}
}
