package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"xst/internal/server"
)

// siteConn is one pooled protocol connection to a site. Connections are
// checked out for the duration of a fragment (the protocol is
// request-at-a-time per connection, and the server meters admission per
// connection) and returned to the pool only after the final response
// line, so a pooled connection never has unread stream lines in it.
type siteConn struct {
	conn net.Conn
	sc   *bufio.Scanner
	next uint64
}

// dialSite opens a new connection under ctx and the dial timeout.
func dialSite(ctx context.Context, addr string, timeout time.Duration) (*siteConn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &siteConn{conn: conn, sc: sc}, nil
}

func (c *siteConn) close() { c.conn.Close() }

// send writes one request line, assigning an id, and reports the wire
// bytes written.
func (c *siteConn) send(req server.Request) (id uint64, n int, err error) {
	c.next++
	req.ID = c.next
	buf, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	buf = append(buf, '\n')
	n, err = c.conn.Write(buf)
	return req.ID, n, err
}

// recv reads one response line for request id and reports its wire
// size.
func (c *siteConn) recv(id uint64) (server.Response, int, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return server.Response{}, 0, err
		}
		return server.Response{}, 0, fmt.Errorf("site closed connection")
	}
	line := c.sc.Bytes()
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return server.Response{}, len(line), fmt.Errorf("bad response line: %w", err)
	}
	if resp.ID != id {
		return server.Response{}, len(line), fmt.Errorf("response id %d for request %d", resp.ID, id)
	}
	return resp, len(line), nil
}

// getConn checks a connection out of the site pool, dialing if the pool
// is empty.
func (c *Coordinator) getConn(ctx context.Context, st *site) (*siteConn, error) {
	st.mu.Lock()
	if n := len(st.idle); n > 0 {
		conn := st.idle[n-1]
		st.idle = st.idle[:n-1]
		st.mu.Unlock()
		return conn, nil
	}
	st.mu.Unlock()
	return dialSite(ctx, st.addr, c.cfg.DialTimeout)
}

// put returns a quiesced connection to the pool.
func (st *site) put(conn *siteConn) {
	st.mu.Lock()
	st.idle = append(st.idle, conn)
	st.mu.Unlock()
}

// admin runs one non-streaming round trip (".load …") under
// a flat deadline, counting its bytes against the site. The deadline is
// the tighter of ctx's and the admin timeout; it is cleared afterwards
// so the connection can host long-streaming fragments.
func (c *Coordinator) admin(ctx context.Context, st *site, conn *siteConn, req server.Request) (server.Response, error) {
	dl := time.Now().Add(c.cfg.AdminTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	if err := conn.conn.SetDeadline(dl); err != nil {
		return server.Response{}, err
	}
	id, nw, err := conn.send(req)
	c.countBytes(st, nw)
	if err != nil {
		return server.Response{}, err
	}
	resp, nr, err := conn.recv(id)
	c.countBytes(st, nr)
	if err != nil {
		return server.Response{}, err
	}
	if err := conn.conn.SetDeadline(time.Time{}); err != nil {
		return server.Response{}, err
	}
	if resp.Error != "" {
		return server.Response{}, fmt.Errorf("%s", resp.Error)
	}
	return resp, nil
}

func (c *Coordinator) countBytes(st *site, n int) {
	if n <= 0 {
		return
	}
	c.m.BytesShipped.Add(uint64(n))
	st.bytes.Add(uint64(n))
}

func (c *Coordinator) countRows(st *site, n int) {
	if n <= 0 {
		return
	}
	c.m.RowsShipped.Add(uint64(n))
	st.rows.Add(uint64(n))
}

// watchdog force-closes a connection when its context dies, unblocking
// any read parked in recv; halt stops it once the stream completes.
type watchdog struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func watchConn(ctx context.Context, conn net.Conn) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		select {
		case <-ctx.Done():
			conn.Close()
		case <-w.stop:
		}
	}()
	return w
}

// halt stops the watchdog and waits for it to exit; afterwards the
// watchdog will not touch the connection. If the context already died
// the connection is closed by then — callers check ctx before pooling.
func (w *watchdog) halt() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}

// sleepCtx waits d or until ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
