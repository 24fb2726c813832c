package fed

import (
	"context"
	"errors"
	"net"
	"time"

	"xst/internal/server"
	"xst/internal/table"
	"xst/internal/trace"
)

// getConn checks a protocol client out of the site pool, dialing under
// ctx and the dial timeout if the pool is empty. A client is checked
// out for the duration of a fragment (the protocol is
// request-at-a-time per connection, and the server meters admission per
// connection) and returned to the pool only after the final response
// line, so a pooled client never has unread stream lines in it.
func (c *Coordinator) getConn(ctx context.Context, st *site) (*server.Client, error) {
	st.mu.Lock()
	if n := len(st.idle); n > 0 {
		conn := st.idle[n-1]
		st.idle = st.idle[:n-1]
		st.mu.Unlock()
		return conn, nil
	}
	st.mu.Unlock()
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", st.addr)
	if err != nil {
		return nil, err
	}
	return server.NewClient(conn), nil
}

// release stops the context.AfterFunc hook that closes a checked-out
// client when its query dies, and pools the client, quiesced by its
// final response line, only if stop reports that the close can no
// longer run; otherwise it closes the client.
func (st *site) release(conn *server.Client, stop func() bool) {
	if !stop() {
		conn.Close()
		return
	}
	st.mu.Lock()
	st.idle = append(st.idle, conn)
	st.mu.Unlock()
}

// recv reads the next response line of request id, counting its bytes
// against the site (and sp), and decodes a batch line's rows at arity.
func (c *Coordinator) recv(st *site, conn *server.Client, id uint64, arity int, sp *trace.Span) (server.Response, []table.Row, error) {
	resp, n, err := conn.Recv(id)
	c.countBytes(st, n)
	sp.AddBytes(int64(n))
	if err != nil || !resp.More {
		return resp, nil, err
	}
	rows, err := server.DecodeWireRows(resp.Batch, arity)
	return resp, rows, err
}

// admin runs one non-streaming round trip (".load …") under a flat
// deadline, counting its bytes against the site. The deadline is the
// tighter of ctx's and the admin timeout; it is cleared afterwards so
// the client can host long-streaming fragments.
func (c *Coordinator) admin(ctx context.Context, st *site, conn *server.Client, req server.Request) error {
	dl := time.Now().Add(c.cfg.AdminTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	if err := conn.SetDeadline(dl); err != nil {
		return err
	}
	id, n, err := conn.Send(req)
	c.countBytes(st, n)
	if err != nil {
		return err
	}
	resp, n, err := conn.Recv(id)
	c.countBytes(st, n)
	if err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	return err
}

// timeoutMS is ctx's remaining budget as a request's site-side
// deadline: 0 (the site's default) without one, at least 1ms with one.
func timeoutMS(ctx context.Context) int64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(time.Until(d).Milliseconds(), 1)
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
