// Package fed exercises connclose: connections are released on every
// path, retry loops close before redialing, and sibling error exits
// tear down symmetrically.
package fed

import (
	"context"
	"errors"
	"net"
)

// wire wraps a raw conn — the server.Client shape the analyzer recognizes as
// conn-carrying. Its own methods are the connection's plumbing and are
// exempt.
type wire struct {
	c net.Conn
}

func (w *wire) close() { w.c.Close() }

func (w *wire) read(p []byte) (int, error) { return w.c.Read(p) }

func (w *wire) send(p []byte) (id, n int, err error) {
	n, err = w.c.Write(p)
	return 1, n, err
}

func dialWire(addr string) (*wire, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wire{c: c}, nil
}

var errProto = errors.New("proto")

func flaky() bool { return false }

// badAbandon leaks the wire when the post-dial check fails.
func badAbandon(addr string) (*wire, error) {
	w, err := dialWire(addr) // want `connection w is not released on every return path`
	if err != nil {
		return nil, err
	}
	if flaky() {
		return nil, errProto
	}
	return w, nil
}

// badRetry redials on the backoff path without closing the previous
// attempt's conn.
func badRetry(addr string) (*wire, error) {
	for {
		w, err := dialWire(addr) // want `connection w is reassigned on a loop path without being closed first`
		if err != nil {
			return nil, err
		}
		if flaky() {
			continue
		}
		return w, nil
	}
}

// goodRetry closes the dead conn before looping.
func goodRetry(addr string) (*wire, error) {
	for {
		w, err := dialWire(addr)
		if err != nil {
			return nil, err
		}
		if flaky() {
			w.close()
			continue
		}
		return w, nil
	}
}

// goodAbandon releases on the failing path too.
func goodAbandon(addr string) (*wire, error) {
	w, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	if flaky() {
		w.close()
		return nil, errProto
	}
	return w, nil
}

// badHooked leaks the wire on the failing path: a context.AfterFunc
// close hook runs only if ctx dies, so it releases nothing.
func badHooked(ctx context.Context, addr string) (*wire, func() bool, error) {
	w, err := dialWire(addr) // want `connection w is not released on every return path`
	if err != nil {
		return nil, nil, err
	}
	stop := context.AfterFunc(ctx, func() { w.close() })
	if flaky() {
		stop()
		return nil, nil, errProto
	}
	return w, stop, nil
}

// goodHooked stops the hook and closes the wire on the failing path.
func goodHooked(ctx context.Context, addr string) (*wire, func() bool, error) {
	w, err := dialWire(addr)
	if err != nil {
		return nil, nil, err
	}
	stop := context.AfterFunc(ctx, func() { w.close() })
	if flaky() {
		stop()
		w.close()
		return nil, nil, errProto
	}
	return w, stop, nil
}

// badSend leaks the wire when the send fails: the second err is the
// send's, not the dial's, so returning it does not mean w is nil.
func badSend(addr string) (int, error) {
	w, err := dialWire(addr) // want `connection w is not released on every return path`
	if err != nil {
		return 0, err
	}
	id, n, err := w.send(nil)
	if err != nil {
		return 0, err
	}
	w.close()
	return id + n, nil
}

// badSendGuard leaks the wire inside the send's own err != nil body.
func badSendGuard(addr string) error {
	w, err := dialWire(addr) // want `connection w is not released on every return path`
	if err != nil {
		return err
	}
	if _, _, err = w.send(nil); err != nil {
		return errProto
	}
	w.close()
	return nil
}

// goodSend closes the wire on the send's failure path; the dial's own
// error still needs no release.
func goodSend(addr string) (int, error) {
	w, err := dialWire(addr)
	if err != nil {
		return 0, err
	}
	id, n, err := w.send(nil)
	if err != nil {
		w.close()
		return 0, err
	}
	w.close()
	return id + n, nil
}

// client holds a conn in a receiver field; its error exits must tear
// down alike.
type client struct {
	w *wire
}

// drop is the dropConn-style teardown the summary layer recognizes.
func (c *client) drop() {
	if c.w != nil {
		c.w.close()
		c.w = nil
	}
}

// badRecv tears down on the read error but abandons the live conn (and
// whatever watches it) on the protocol error.
func (c *client) badRecv() (byte, error) {
	buf := make([]byte, 1)
	_, err := c.w.read(buf)
	if err != nil {
		c.drop()
		return 0, err
	}
	if buf[0] == 0 {
		return 0, errProto // want `abandons the receiver's live connection`
	}
	return buf[0], nil
}

// goodRecv tears down on every error exit.
func (c *client) goodRecv() (byte, error) {
	buf := make([]byte, 1)
	_, err := c.w.read(buf)
	if err != nil {
		c.drop()
		return 0, err
	}
	if buf[0] == 0 {
		c.drop()
		return 0, errProto
	}
	return buf[0], nil
}

// goodGuard: error returns before the conn is ever touched need no
// teardown.
func (c *client) goodGuard(n int) (byte, error) {
	if n < 0 {
		return 0, errProto
	}
	buf := make([]byte, 1)
	_, err := c.w.read(buf)
	if err != nil {
		c.drop()
		return 0, err
	}
	return buf[0], nil
}
