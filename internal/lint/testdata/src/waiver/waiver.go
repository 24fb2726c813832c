// Package server exercises stale-waiver detection: a //lint:ignore
// directive that no longer suppresses anything is itself reported (and
// deletable by -fix), while a live waiver stays silent.
package server

import (
	"errors"
	"net"
	"sync"

	"xst/internal/trace"
)

type box struct {
	mu  sync.Mutex
	out chan int
}

// live: the waiver below suppresses a real lockheld diagnostic.
func (b *box) live(v int) {
	b.mu.Lock()
	//lint:ignore lockheld benchmarked: the consumer always drains ahead of producers
	b.out <- v
	b.mu.Unlock()
}

// stale: nothing on the next line trips lockheld anymore.
func (b *box) stale(v int) {
	//lint:ignore lockheld left over from an old refactor
	b.out <- v
}

// The lifecycle rows keep their analyzer names, so a waiver names its
// row: each has one live waiver on a real violation and one stale waiver
// on a clean line.

var errFail = errors.New("fail")

type op struct{}

func (o *op) Open() error  { return nil }
func (o *op) Next() error  { return nil }
func (o *op) Close() error { return nil }

func newOp() *op { return &op{} }

func liveOp(fail bool) (*op, error) {
	//lint:ignore opclose the failure path hands the process to a crash handler
	o := newOp()
	if fail {
		return nil, errFail
	}
	return o, nil
}

func staleOp() error {
	//lint:ignore opclose left over from an old refactor
	o := newOp()
	return o.Close()
}

type wire struct{ c net.Conn }

func (w *wire) close() { w.c.Close() }

func dial(addr string) (*wire, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{c: c}, nil
}

func liveConn(addr string, fail bool) (*wire, error) {
	//lint:ignore connclose the failure path hands the process to a crash handler
	w, err := dial(addr)
	if err != nil {
		return nil, err
	}
	if fail {
		return nil, errFail
	}
	return w, nil
}

func staleConn(addr string) error {
	//lint:ignore connclose left over from an old refactor
	w, err := dial(addr)
	if err != nil {
		return err
	}
	w.close()
	return nil
}

type txn struct{}

func (t *txn) Commit() error { return nil }
func (t *txn) Abort()        {}

func begin() *txn { return &txn{} }

func liveTxn(fail bool) error {
	tx := begin() //lint:ignore txnend the failure path hands the process to a crash handler
	if fail {
		return errFail
	}
	return tx.Commit()
}

func staleTxn() error {
	tx := begin() //lint:ignore txnend left over from an old refactor
	return tx.Commit()
}

func liveSpan(fail bool) error {
	sp := trace.NewRoot("fixture")
	if fail {
		//lint:ignore spanclose the failure path hands the process to a crash handler
		return errFail
	}
	sp.End()
	return nil
}

func staleSpan() {
	//lint:ignore spanclose left over from an old refactor
	sp := trace.NewRoot("fixture")
	sp.End()
}
