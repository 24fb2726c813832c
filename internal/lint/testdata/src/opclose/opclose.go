// Package plan exercises opclose: a locally-built operator must be
// closed, escape, or be handed to an owning callee on every return
// path — especially the compile-error unwinds.
package plan

import "errors"

// op has the structural Operator shape (Open/Next/Close).
type op struct{ open bool }

func (o *op) Open() error  { o.open = true; return nil }
func (o *op) Next() error  { return nil }
func (o *op) Close() error { o.open = false; return nil }

func newOp() *op { return &op{} }

func mk() (*op, error) { return &op{}, nil }

var errArity = errors.New("arity")

func cond() bool { return false }

// badUnwind abandons the child on the arity-check error path.
func badUnwind(n int) (*op, error) {
	child := newOp() // want `operator child is not closed on every return path`
	if n < 0 {
		return nil, errArity
	}
	return child, nil
}

// badDeferLoop: per-iteration defers pile up until the function
// returns — a leak in slow motion.
func badDeferLoop(n int) error {
	for i := 0; i < n; i++ {
		o := newOp()
		defer o.Close() // want `defer o\.Close\(\) inside a loop releases nothing`
		if err := o.Open(); err != nil {
			return err
		}
	}
	return nil
}

// badRetry abandons the previous operator when the flaky path loops
// back to acquire a fresh one.
func badRetry() error {
	for {
		o := newOp() // want `operator o is reassigned on a loop path without being closed first`
		if cond() {
			continue
		}
		err := o.Open()
		o.Close()
		return err
	}
}

// goodUnwind closes the child before the error return.
func goodUnwind(n int) (*op, error) {
	child := newOp()
	if n < 0 {
		child.Close()
		return nil, errArity
	}
	return child, nil
}

// goodErrSibling: the acquisition itself failed, nothing is live.
func goodErrSibling() (*op, error) {
	o, err := mk()
	if err != nil {
		return nil, err
	}
	return o, nil
}

// goodErrGuard: returning a different error under the err != nil guard
// still means the operator was never live.
func goodErrGuard() (*op, error) {
	o, err := mk()
	if err != nil {
		return nil, errArity
	}
	return o, nil
}

// drive takes ownership: it closes its operator on every path, a fact
// the summary layer records as ReleasesParams.
func drive(o *op) error {
	defer o.Close()
	return o.Open()
}

// goodHandoff releases by handing the operator to drive.
func goodHandoff(n int) error {
	o := newOp()
	if n > 0 {
		if err := drive(o); err != nil {
			return err
		}
		return nil
	}
	o.Close()
	return nil
}

// goodEscape: appending into a returned slice hands ownership to the
// caller.
func goodEscape(n int) []*op {
	var ops []*op
	for i := 0; i < n; i++ {
		o := newOp()
		ops = append(ops, o)
	}
	return ops
}

type holder struct{ o *op }

// goodStore: storing through a field escapes this frame.
func (h *holder) fill() {
	o := newOp()
	h.o = o
}

// tree is itself an operator: its methods follow the recursive Close
// discipline (a parent's Close owns the children), so opclose exempts
// them even when an error path drops a fresh child.
type tree struct{ kids []*op }

func (t *tree) Open() error {
	k := newOp()
	if cond() {
		return errArity
	}
	t.kids = append(t.kids, k)
	return nil
}
func (t *tree) Next() error  { return nil }
func (t *tree) Close() error { return nil }

// badClosure: a function literal's body is a function of its own, and
// its unwinds owe the same release.
func badClosure(n int) func() (*op, error) {
	return func() (*op, error) {
		o := newOp() // want `operator o is not closed on every return path`
		if n < 0 {
			return nil, errArity
		}
		return o, nil
	}
}
