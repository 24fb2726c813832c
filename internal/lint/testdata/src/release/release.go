// Package release exercises the release row: a read snapshot pinned in
// a function (Pin, BeginRead, NewView) must be released or escape on
// every return path — a forgotten Release keeps its epoch's superseded
// page images alive for the life of the process.
package release

import "errors"

// snap has the structural snapshot shape (Release).
type snap struct{ view *view }

func (s *snap) Release() {
	if s.view != nil {
		s.view.Release()
	}
}

type view struct{ epoch uint64 }

func (v *view) Release() {}

type env struct{}

func (e *env) Pin() snap { return snap{view: &view{}} }

type pool struct{}

func (p *pool) NewView() *view { return &view{} }

// lookup returns a snapshot without pinning one: not a maker.
func (e *env) lookup() snap { return snap{} }

var errCompile = errors.New("compile")

func compile(s string) error {
	if s == "" {
		return errCompile
	}
	return nil
}

// badUnwind forgets the snapshot on the compile-error path.
func badUnwind(e *env, src string) error {
	rt := e.Pin() // want `read snapshot rt is not released on every return path`
	if err := compile(src); err != nil {
		return err
	}
	rt.Release()
	return nil
}

// badView skips the release on its early return.
func badView(p *pool, n int) int {
	v := p.NewView() // want `read snapshot v is not released on every return path`
	if n < 0 {
		return 0
	}
	v.Release()
	return n
}

// goodDefer is the sanctioned shape: the deferred Release covers every
// path, the error unwinds included.
func goodDefer(e *env, src string) error {
	rt := e.Pin()
	defer rt.Release()
	return compile(src)
}

// goodReturned hands the pinned view to the caller, who owns it.
func goodReturned(p *pool) *view {
	v := p.NewView()
	return v
}

// goodLookup binds a snapshot no call here pinned.
func goodLookup(e *env) snap {
	s := e.lookup()
	_ = s.view
	return snap{}
}

func compileAt(v *view, s string) error { return compile(s) }

// badReturnCall returns a call that reads the snapshot, which hands the
// caller a result, not the snapshot.
func badReturnCall(e *env, src string) error {
	rt := e.Pin() // want `read snapshot rt is not released on every return path`
	return compileAt(rt.view, src)
}

// badReturnField returns a field of the view, not the view.
func badReturnField(p *pool) uint64 {
	v := p.NewView() // want `read snapshot v is not released on every return path`
	return v.epoch
}

// goodReturnedComposite hands the pinned view to the caller inside the
// snapshot it returns.
func goodReturnedComposite(p *pool) *snap {
	v := p.NewView()
	return &snap{view: v}
}
