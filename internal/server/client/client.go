// Package client is the Go client for the zidian server's line-delimited
// JSON wire protocol. One Client owns one TCP connection; calls are
// serialized on it (the protocol answers requests in order), so open one
// Client per concurrent worker for parallel load.
package client

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"zidian/internal/server"
)

// Client is one wire-protocol connection.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	buf  []byte // the request line, reused
	next int64
}

// Dial connects to a zidian server's TCP address.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	return &Client{conn: conn, sc: sc}, nil
}

// Close closes the connection (and the server-side session with it).
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and reads its response; lean leaves the
// response's cols and rows undecoded.
func (c *Client) roundTrip(req *server.Request, lean bool) (*server.Response, error) {
	c.next++
	req.ID = c.next
	c.buf = append(req.AppendJSON(c.buf[:0]), '\n')
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("client: connection closed by server")
	}
	var resp server.Response
	if err := server.DecodeResponse(c.sc.Bytes(), &resp, lean); err != nil {
		return nil, fmt.Errorf("client: malformed response: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	return &resp, nil
}

// ServerError is an ok:false response surfaced as an error. Code carries
// the server's machine-readable class ("queue_timeout", "overloaded",
// "canceled", "statement"); Retryable reports whether the failure is
// backpressure the client should back off and retry rather than a fault in
// the statement itself.
type ServerError struct {
	Msg  string
	Code string
}

// Error returns the server's message.
func (e *ServerError) Error() string { return e.Msg }

// Retryable reports whether the error is transient backpressure.
func (e *ServerError) Retryable() bool {
	return e.Code == "queue_timeout" || e.Code == "overloaded" || e.Code == "canceled"
}

// do round-trips and converts ok:false into a *ServerError.
func (c *Client) do(req *server.Request, lean bool) (*server.Response, error) {
	resp, err := c.roundTrip(req, lean)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return resp, &ServerError{Msg: resp.Error, Code: resp.Code}
	}
	return resp, nil
}

// QueryLean runs one SELECT and returns only its execution statistics,
// leaving the rows on the wire undecoded: load generators discard them, and
// decoding them costs more than everything else a bench client does per
// request. Use it when the caller needs the round trip and the stats but not
// the data — load generation, warmup, liveness probes over real statements.
func (c *Client) QueryLean(sql string, params ...any) (*server.QueryStats, error) {
	raw, err := server.EncodeParams(params)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(&server.Request{Op: "query", SQL: sql, Params: raw}, true)
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Query runs one SELECT and returns columns, rows and execution statistics.
// The statement may carry `?` placeholders bound positionally by params
// (Go integers, floats, strings, or relation.Value).
func (c *Client) Query(sql string, params ...any) (cols []string, rows [][]any, stats *server.QueryStats, err error) {
	raw, err := server.EncodeParams(params)
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := c.do(&server.Request{Op: "query", SQL: sql, Params: raw}, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return resp.Cols, resp.Rows, resp.Stats, nil
}

// Exec runs any statement. SELECTs return rows; INSERT/DELETE return the
// affected count. `?` placeholders bind positionally from params.
func (c *Client) Exec(sql string, params ...any) (*server.Response, error) {
	raw, err := server.EncodeParams(params)
	if err != nil {
		return nil, err
	}
	return c.do(&server.Request{Op: "exec", SQL: sql, Params: raw}, false)
}

// Prepare compiles a SELECT — possibly a `?` template — under a
// session-scoped name.
func (c *Client) Prepare(name, sql string) error {
	_, err := c.do(&server.Request{Op: "prepare", Name: name, SQL: sql}, false)
	return err
}

// Execute runs a previously prepared SELECT, binding params into its `?`
// placeholders.
func (c *Client) Execute(name string, params ...any) (cols []string, rows [][]any, stats *server.QueryStats, err error) {
	raw, err := server.EncodeParams(params)
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := c.do(&server.Request{Op: "execute", Name: name, Params: raw}, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return resp.Cols, resp.Rows, resp.Stats, nil
}

// ClosePrepared drops a prepared statement.
func (c *Client) ClosePrepared(name string) error {
	_, err := c.do(&server.Request{Op: "close", Name: name}, false)
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.do(&server.Request{Op: "ping"}, false)
	return err
}

// Stats fetches server-wide statistics.
func (c *Client) Stats() (*server.ServerStats, error) {
	resp, err := c.do(&server.Request{Op: "stats"}, false)
	if err != nil {
		return nil, err
	}
	if resp.Server == nil {
		return nil, fmt.Errorf("client: stats response missing payload")
	}
	return resp.Server, nil
}
