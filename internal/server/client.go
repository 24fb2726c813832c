package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"xst/internal/trace"
)

// Client is a synchronous connection to an xstd server: one Do at a
// time (callers wanting concurrency open one Client per goroutine,
// which is also how the server meters admission).
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
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &Client{conn: conn, sc: sc}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and reads its response. A zero req.ID is
// assigned automatically; the response id is checked against it.
// Streamed query batches are collected into the final response's Batch;
// use DoStream to see batches as they arrive.
func (c *Client) Do(req Request) (Response, error) {
	return c.DoStream(req, nil)
}

// DoStream is Do, but feeds each intermediate batch line of a streamed
// query result to fn (when non-nil) the moment it is read, instead of
// accumulating rows. The final response's Batch holds all rows when fn
// is nil, and only the final line's own content otherwise. If fn
// returns an error the stream is abandoned mid-flight. Any error — fn's,
// the transport's, a line over 1 MiB, a bad response — can leave lines
// unread, so it is sticky: every later call on c returns it at once.
func (c *Client) DoStream(req Request, fn func(rows []string) error) (Response, error) {
	if c.err != nil {
		return Response{}, c.err
	}
	resp, err := c.exchange(req, fn)
	c.err = err
	return resp, err
}

func (c *Client) exchange(req Request, fn func(rows []string) error) (Response, error) {
	if req.ID == 0 {
		c.next++
		req.ID = c.next
	}
	c.out = appendRequest(c.out[:0], &req)
	if _, err := c.conn.Write(c.out); err != nil {
		return Response{}, err
	}
	var batches []string
	for {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return Response{}, err
			}
			return Response{}, fmt.Errorf("server closed connection")
		}
		resp, err := c.dec.response(c.sc.Bytes())
		if err != nil {
			return Response{}, fmt.Errorf("bad response %q: %w", c.sc.Text(), err)
		}
		if resp.ID != req.ID {
			return Response{}, fmt.Errorf("response id %d for request %d", resp.ID, req.ID)
		}
		if resp.More {
			if fn != nil {
				if err := fn(resp.Batch); err != nil {
					return Response{}, err
				}
			} else {
				batches = append(batches, resp.Batch...)
			}
			continue
		}
		if len(batches) > 0 {
			resp.Batch = append(batches, resp.Batch...)
		}
		return resp, nil
	}
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
