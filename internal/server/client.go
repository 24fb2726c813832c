package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"xst/internal/trace"
)

// Client is a synchronous connection to an xstd server: one request
// at a time (callers wanting concurrency open one Client per goroutine,
// which is also how the server meters admission). Do and DoStream run
// whole exchanges; Send and Recv are their halves, for a caller that
// pulls a stream's lines one at a time.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	next uint64
	out  []byte  // the request line being written
	dec  scanner // reads response lines
	err  error   // the first error of an exchange, sticky (see DoStream)
}

// Dial connects to an xstd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the protocol over an open connection, which it owns.
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &Client{conn: conn, sc: sc}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetDeadline sets the connection's read and write deadline; the zero
// time clears it.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Do sends one request and reads its response. A zero req.ID is
// assigned automatically; the response id is checked against it.
// Streamed query batches are collected into the final response's Batch;
// use DoStream to see batches as they arrive.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoStream(req, nil)
}

// DoStream is Do, but feeds each intermediate batch line of a streamed
// query result to fn (when non-nil) the moment it is read, instead of
// accumulating rows; fn's slice is Recv's, reused by the next line. The
// final response's Batch, a copy, holds all rows when fn is nil, and
// only the final line's own content otherwise. If fn returns an error
// the stream is abandoned mid-flight. Any error — fn's, the transport's,
// a line over 1 MiB, a bad response — can leave lines unread, so it is
// sticky: every later call on c returns it at once.
func (c *Client) DoStream(req Request, fn func(rows []string) error) (Response, error) {
	id, _, err := c.Send(req)
	var batches []string
	for err == nil {
		var resp Response
		if resp, _, err = c.Recv(id); err != nil {
			break
		}
		if !resp.More {
			resp.Batch = append(batches, resp.Batch...)
			return resp, nil
		}
		if fn == nil {
			batches = append(batches, resp.Batch...)
		} else if err = fn(resp.Batch); err != nil {
			c.err = err
		}
	}
	return Response{}, err
}

// Send writes req as one request line, assigning the next id when
// req.ID is zero, and returns the id and the bytes written, the
// newline included. Errors are sticky, as in DoStream.
func (c *Client) Send(req Request) (id uint64, n int, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	if req.ID == 0 {
		c.next++
		req.ID = c.next
	}
	c.out = appendRequest(c.out[:0], &req)
	n, c.err = c.conn.Write(c.out)
	return req.ID, n, c.err
}

// Recv reads the next response line, which must answer request id, and
// returns it with the line's length. A query's batch lines have More
// set; the first line without it is the request's last. The next Recv
// rewrites resp.Batch, but not the strings in it. Errors are sticky, as
// in DoStream.
func (c *Client) Recv(id uint64) (resp Response, n int, err error) {
	if c.err != nil {
		return Response{}, 0, c.err
	}
	if !c.sc.Scan() {
		if c.err = c.sc.Err(); c.err == nil {
			c.err = fmt.Errorf("server closed connection")
		}
		return Response{}, 0, c.err
	}
	line := c.sc.Bytes()
	if resp, err = c.dec.response(line); err != nil {
		c.err = fmt.Errorf("bad response %q: %w", line, err)
	} else if resp.ID != id {
		c.err = fmt.Errorf("response id %d for request %d", resp.ID, id)
	}
	if c.err != nil {
		return Response{}, len(line), c.err
	}
	return resp, len(line), nil
}

// Query runs a query statement, streaming each batch of rendered rows
// to fn as it arrives, and returns the final summary response.
func (c *Client) Query(stmt string, fn func(rows []string) error) (Response, error) {
	resp, err := c.DoStream(Request{Stmt: stmt}, fn)
	if err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return Response{}, fmt.Errorf("%s", resp.Error)
	}
	return resp, nil
}

// Eval evaluates one statement, returning the rendered result.
func (c *Client) Eval(stmt string) (string, error) {
	resp, err := c.Do(Request{Stmt: stmt})
	if err != nil {
		return "", err
	}
	if resp.Error != "" {
		return "", fmt.Errorf("%s", resp.Error)
	}
	return resp.Result, nil
}

// Trace runs stmt forcibly traced (`.trace <stmt>`) and decodes the
// resulting span tree.
func (c *Client) Trace(stmt string) (trace.SpanSnapshot, error) {
	var snap trace.SpanSnapshot
	res, err := c.Eval(".trace " + stmt)
	if err == nil {
		err = json.Unmarshal([]byte(res), &snap)
	}
	return snap, err
}
