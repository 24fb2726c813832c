// Package catalog exercises txnend: a locally-begun transaction (any
// value with both Commit and Abort in its method set) must be committed,
// aborted, or escape on every return path — especially the validation
// unwinds between Begin and Commit, where an abandoned transaction keeps
// the writer lock and wedges every later writer.
package catalog

import "errors"

// txn has the structural transaction shape (Commit/Abort).
type txn struct{ open bool }

func (t *txn) Commit() error                   { t.open = false; return nil }
func (t *txn) CommitWith(f func() error) error { t.open = false; return f() }
func (t *txn) Abort()                          { t.open = false }

type db struct{ last *txn }

func (d *db) Begin() *txn { return &txn{open: true} }

func (d *db) beginErr() (*txn, error) { return &txn{open: true}, nil }

var errBadName = errors.New("bad name")

func cond() bool { return false }

// badUnwind abandons the transaction on the validation error path: the
// writer lock stays held forever.
func badUnwind(d *db, name string) error {
	tx := d.Begin() // want `transaction tx is not committed or aborted on every return path`
	if name == "" {
		return errBadName
	}
	return tx.Commit()
}

// badBranch aborts on one branch but forgets the other.
func badBranch(d *db, n int) error {
	tx := d.Begin() // want `transaction tx is not committed or aborted on every return path`
	if n < 0 {
		tx.Abort()
		return errBadName
	}
	if n == 0 {
		return nil // neither committed nor aborted
	}
	return tx.Commit()
}

// badRetry begins a fresh transaction on a loop path without ending the
// previous one.
func badRetry(d *db) error {
	for {
		tx := d.Begin() // want `transaction tx is reassigned on a loop path without being closed first`
		if cond() {
			continue
		}
		return tx.Commit()
	}
}

// goodPair ends the transaction on both branches.
func goodPair(d *db, name string) error {
	tx := d.Begin()
	if name == "" {
		tx.Abort()
		return errBadName
	}
	return tx.Commit()
}

// goodDeferAbort is the sanctioned unwind shape: Abort is a no-op after
// Commit, so the defer covers every path.
func goodDeferAbort(d *db, name string) error {
	tx := d.Begin()
	defer tx.Abort()
	if name == "" {
		return errBadName
	}
	return tx.Commit()
}

// goodCommitWith ends through the callback-commit variant.
func goodCommitWith(d *db, publish func() error) error {
	tx := d.Begin()
	if err := tx.CommitWith(publish); err != nil {
		return err
	}
	return nil
}

// goodEscape hands the transaction to the caller, who owns its end.
func goodEscape(d *db) *txn {
	tx := d.Begin()
	return tx
}

// goodStore parks the transaction in an owning struct.
func goodStore(d *db) {
	tx := d.Begin()
	d.last = tx
}

// goodErrSibling propagates the begin error: on that path the
// transaction was never live.
func goodErrSibling(d *db) error {
	tx, err := d.beginErr()
	if err != nil {
		return err
	}
	return tx.Commit()
}

// goodClosure captures the transaction in a closure, which owns it.
func goodClosure(d *db) func() error {
	tx := d.Begin()
	return func() error { return tx.Commit() }
}

// badDeferLoop: the enders are the row's, so a deferred Abort per
// iteration holds every transaction open until the function returns.
func badDeferLoop(d *db, names []string) error {
	for _, name := range names {
		tx := d.Begin()
		defer tx.Abort() // want `defer tx\.Abort\(\) inside a loop releases nothing`
		if name == "" {
			return errBadName
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}
