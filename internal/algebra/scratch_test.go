package algebra

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// poison turns poison mode on for one test and returns its restore.
func poison() (restore func()) {
	was := poisoned
	poisoned = true
	return func() { poisoned = was }
}

// takenScratches counts the scratches taken and not put back, in poison
// mode.
func takenScratches() (n int) {
	liveMu.Lock()
	defer liveMu.Unlock()
	for _, taken := range live {
		if taken {
			n++
		}
	}
	return n
}

// TestCancelledCountReturnsScratch: a count cancelled mid-derivation
// puts its scratch back, and the next count on the goroutine, which may
// take that scratch with what the cancelled one left in it, still
// equals core.Card of the oracle.
func TestCancelledCountReturnsScratch(t *testing.T) {
	defer poison()()
	ctx := context.Background()
	small := chain(60)
	ref, _ := refTransitiveClosure(ctx, small)
	f, g := fan(40, true), fan(40, false)
	for _, c := range []struct {
		name       string
		cancelled  *Derived
		next       *Derived
		nextWanted int
	}{
		{"relprod", DeriveRelativeProduct(fan(300, true), fan(300, false), cst.Sigma, cst.Omega),
			DeriveRelativeProduct(f, g, cst.Sigma, cst.Omega), core.Card(refRelativeProduct(f, g, cst.Sigma, cst.Omega))},
		{"σ-domain", DeriveSigmaDomain(chain(2000), stdSigma.S1),
			DeriveSigmaDomain(small, stdSigma.S1), core.Card(refSigmaDomain(small, stdSigma.S1))},
		{"closure", DeriveTransitiveClosure(chain(2000)), DeriveTransitiveClosure(small), core.Card(ref)},
	} {
		cctx, stop := xtest.CountdownContext(3)
		_, err := c.cancelled.Card(cctx)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled count returned %v", c.name, err)
		}
		if n := takenScratches(); n != 0 {
			t.Fatalf("%s: %d scratches still taken after a cancelled count", c.name, n)
		}
		if n, err := c.next.Card(ctx); err != nil || n != c.nextWanted {
			t.Fatalf("%s: count after a cancelled one = %d (%v), want %d", c.name, n, err, c.nextWanted)
		}
	}
}

// TestConcurrentCounts counts relprod, σ-domain, image and closure
// derivations on four goroutines at once, each against its oracle: no
// two finishes share a scratch (run it under -race).
func TestConcurrentCounts(t *testing.T) {
	cfg := xtest.DefaultConfig()
	ctx := context.Background()
	kinds := []func(r *xtest.Rand) (*Derived, *core.Set){
		func(r *xtest.Rand) (*Derived, *core.Set) {
			f, g := shareElems(r, cfg, randMembers(r, cfg)), shareElems(r, cfg, randMembers(r, cfg))
			spec := randSpec(r, cfg)
			return DeriveRelativeProduct(f, g, spec.Sigma, spec.Omega), refRelativeProduct(f, g, spec.Sigma, spec.Omega)
		},
		func(r *xtest.Rand) (*Derived, *core.Set) {
			f, sigma := shareElems(r, cfg, randMembers(r, cfg)), randScopeSet(r, cfg)
			return DeriveSigmaDomain(f, sigma), refSigmaDomain(f, sigma)
		},
		func(r *xtest.Rand) (*Derived, *core.Set) {
			f, a, spec := shareElems(r, cfg, randMembers(r, cfg)), randMembers(r, cfg), randSpec(r, cfg)
			return DeriveImage(f, a, spec.Sigma), refSigmaDomain(SigmaRestrict(f, spec.Sigma.S1, a), spec.Sigma.S2)
		},
		func(r *xtest.Rand) (*Derived, *core.Set) {
			gr := shareElems(r, cfg, bigGraph(r, cfg))
			want, _ := refTransitiveClosure(ctx, gr)
			return DeriveTransitiveClosure(gr), want
		},
	}
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := xtest.NewRand(uint64(0x48 + i))
			for trial := range 40 {
				d, want := kind(r)
				if n, err := d.Card(ctx); err != nil || n != core.Card(want) {
					t.Errorf("kind %d trial %d: Card = %d (%v), want %d = card of %v", i, trial, n, err, core.Card(want), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScratchPastCapNotPooled: a scratch whose chains grew past
// maxPooled is dropped at put, and one at the cap goes back.
func TestScratchPastCapNotPooled(t *testing.T) {
	for _, c := range []struct {
		room   int
		pooled bool
	}{{maxPooled + 1, false}, {maxPooled, true}} {
		sc := getScratch()
		sc.join.Reset(c.room)
		putScratch(sc)
		found := false
		for range 20 {
			o := getScratch()
			found = found || o == sc
			putScratch(o)
		}
		// The race detector's sync.Pool drops a share of what is put
		// back, so only the drop is certain there.
		if found != c.pooled && (found || !raceEnabled) {
			t.Errorf("a scratch with room for %d ids: pooled %v, want %v", c.room, found, c.pooled)
		}
	}
}

// TestPoisonedScratch: in poison mode a scratch put back reads as
// sentinels, a walk of its chains panics, and a second put panics.
func TestPoisonedScratch(t *testing.T) {
	defer poison()()
	sc := getScratch()
	d := DeriveTransitiveClosure(chain(40))
	if err := d.src.file(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	sc.m = append(sc.m[:0], core.Member{Elem: core.Int(1), Scope: core.Empty()})
	putScratch(sc)
	for _, id := range append(sc.ends[:cap(sc.ends)], sc.off[:cap(sc.off)]...) {
		if id != poisonID {
			t.Fatalf("a released graph holds id %d", id)
		}
	}
	for _, c := range sc.t.ids[:cap(sc.t.ids)] {
		if c != (cand{poisonID, poisonID}) {
			t.Fatalf("a released table holds %v", c)
		}
	}
	if m := sc.m[0]; m.Elem != poisonVal {
		t.Fatalf("a released buffer holds %v", m)
	}
	mustPanic(t, "a walk of released chains", func() { sc.t.chains.First(0) })
	mustPanic(t, "a second put", func() { putScratch(sc) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
