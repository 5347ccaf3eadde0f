package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"zidian/internal/server"
	"zidian/internal/server/client"
)

var (
	wallMicros  = regexp.MustCompile(`"wallMicros":\d+`)
	statsBody   = regexp.MustCompile(`"server":\{.*\}\}$`)
	protocolMsg = regexp.MustCompile(`"error":"malformed request: .*","code":"protocol"\}$`)
)

// maskResponse blanks what the script's header says is not compared.
func maskResponse(l []byte) string {
	l = wallMicros.ReplaceAll(l, []byte(`"wallMicros":0`))
	l = statsBody.ReplaceAll(l, []byte(`"server":{}}`))
	l = protocolMsg.ReplaceAll(l, []byte(`"error":"malformed request: ...","code":"protocol"}`))
	return string(l)
}

// recordingProxy relays one connection to the server a line at a time and
// keeps what went each way.
func recordingProxy(t *testing.T, upstream string) (addr string, lines func() (reqs, resps [][]byte)) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reqs, resps [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		u, err := net.Dial("tcp", upstream)
		if err != nil {
			t.Error(err)
			return
		}
		defer u.Close()
		cr, ur := bufio.NewReaderSize(c, 1<<20), bufio.NewReaderSize(u, 1<<20)
		for {
			line, err := cr.ReadBytes('\n')
			if err != nil {
				return
			}
			reqs = append(reqs, bytes.TrimSuffix(line, []byte("\n")))
			u.Write(line)
			resp, err := ur.ReadBytes('\n')
			if err != nil {
				return
			}
			resps = append(resps, bytes.TrimSuffix(resp, []byte("\n")))
			c.Write(resp)
		}
	}()
	return ln.Addr().String(), func() ([][]byte, [][]byte) { <-done; return reqs, resps }
}

// replayByClient makes the client call that wrote the recorded request line.
func replayByClient(t *testing.T, c *client.Client, line []byte) {
	var req struct {
		Op, SQL, Name string
		Params        []json.RawMessage
	}
	if err := json.Unmarshal(line, &req); err != nil {
		t.Fatalf("script request %q: %v", line, err)
	}
	params := make([]any, len(req.Params))
	for i, p := range req.Params {
		var n json.Number
		if p[0] == '"' {
			var s string
			json.Unmarshal(p, &s)
			// The script's one U+FFFD is how the parent's client wrote an
			// invalid byte; hand the client the byte again.
			params[i] = strings.ReplaceAll(s, "\ufffd", "\xff")
		} else if json.Unmarshal(p, &n); strings.ContainsAny(n.String(), ".eE") {
			params[i], _ = n.Float64()
		} else if v, err := n.Int64(); err == nil {
			params[i] = v
		} else {
			params[i], _ = strconv.ParseUint(n.String(), 10, 64)
		}
	}
	switch req.Op { // errors are part of the script: the response line carries them
	case "query":
		c.Query(req.SQL, params...)
	case "exec":
		c.Exec(req.SQL, params...)
	case "prepare":
		c.Prepare(req.Name, req.SQL)
	case "execute":
		c.Execute(req.Name, params...)
	case "close":
		c.ClosePrepared(req.Name)
	case "ping":
		c.Ping()
	case "stats":
		c.Stats()
	default:
		t.Fatalf("script request %q: no client call writes op %q", line, req.Op)
	}
}

// TestWireScriptGolden holds the wire to what its readers saw before the
// hand-written codec: the committed script, recorded at the parent commit
// with encoding/json on both ends, replays to the same response lines (bar
// what maskResponse blanks), and the client writes the same request lines —
// so old and new ends interoperate in both directions.
func TestWireScriptGolden(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.2, 7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{ReclaimInterval: -1})
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context())
	steps := server.WireScript(t)

	// The client section and the raw section each ran on a connection of
	// their own.
	var got [][]byte
	for _, byClient := range []bool{true, false} {
		addr, lines := recordingProxy(t, tcp)
		var want [][]byte
		if byClient {
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range steps {
				if st.ByClient {
					want = append(want, st.Req)
					replayByClient(t, c, st.Req)
				}
			}
			c.Close()
		} else {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			rd := bufio.NewReaderSize(conn, 1<<20)
			for _, st := range steps {
				if !st.ByClient {
					want = append(want, st.Req)
					conn.Write(append(append([]byte(nil), st.Req...), '\n'))
					if _, err := rd.ReadBytes('\n'); err != nil {
						t.Fatalf("raw request %q: %v", st.Req, err)
					}
				}
			}
			conn.Close()
		}
		reqs, resps := lines()
		if len(reqs) != len(want) || len(resps) != len(want) {
			t.Fatalf("client=%v: %d requests and %d responses crossed the wire, want %d", byClient, len(reqs), len(resps), len(want))
		}
		for i := range want {
			if !bytes.Equal(reqs[i], want[i]) {
				t.Errorf("the client wrote\n%s\nthe parent's client wrote\n%s", reqs[i], want[i])
			}
		}
		got = append(got, resps...)
	}
	for i, st := range steps { // steps are client section first, like got
		w := maskResponse(st.Resp)
		if fixed, ok := fixedAnswers[string(st.Req)]; ok {
			w = fixed
		}
		if g := maskResponse(got[i]); g != w {
			t.Errorf("request %s\n got %s\nwant %s", st.Req, g, w)
		}
	}
}

// fixedAnswers replace, by request line, the script's answers the parent got
// wrong: it rejected a trailing `;` that its plan-cache key had already
// stripped, and the parser now reads the run as the end of the statement.
var fixedAnswers = map[string]string{
	`{"id":26,"op":"query","sql":"SELECT  V.make FROM VEHICLE V\n WHERE V.vehicle_id = 7 ;"}`: `{"id":26,"ok":true,"cols":["V.make"],"rows":[["NISSAN"]],"stats":{"scanFree":true,"bounded":true,"gets":1,"dataValues":13,"wallMicros":0,"cacheHit":true}}`,
}

// rawConn is one wire connection driven a line at a time.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, rd: bufio.NewReaderSize(conn, 1<<20)}
}

func (c *rawConn) roundTrip(line string) server.Response {
	c.t.Helper()
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		c.t.Fatal(err)
	}
	raw, err := c.rd.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("request %.60q: %v", line, err)
	}
	var resp server.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.t.Fatalf("response %q: %v", raw, err)
	}
	return resp
}

// TestWireLineReuse: each request line overwrites the previous one in the
// connection's read buffer, so nothing the server keeps past a statement —
// plan-cache keys, prepared names, statement text — may alias it. A long text
// then a short one, and a cache-miss text then another of equal length, must
// each key, cache and answer as themselves (run under -race in CI).
func TestWireLineReuse(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{})
	c := dialRaw(t, tcp)
	query := func(sql string) server.Response {
		t.Helper()
		line, _ := json.Marshal(map[string]any{"op": "query", "sql": sql})
		return c.roundTrip(string(line))
	}
	ref := query("select V.make, V.model from VEHICLE V where V.vehicle_id = 7").Rows[0]
	make7, model7 := [][]any{{ref[0]}}, [][]any{{ref[1]}}

	long := "select V.make from VEHICLE V where V.vehicle_id = ? and V.year >= 1900 and V.year <= 2100 and V.doors >= 0"
	short := "select V.model from VEHICLE V where V.vehicle_id = ?"
	sameLenA := "select V.make  from VEHICLE V where V.vehicle_id = ? and V.doors >= 1"
	sameLenB := "select V.model from VEHICLE V where V.vehicle_id = ? and V.doors >= 1"
	if len(sameLenA) != len(sameLenB) {
		t.Fatal("the equal-length texts are not")
	}
	for round := 0; round < 2; round++ { // second round: every text is a cache hit
		for _, tc := range []struct {
			sql  string
			want [][]any
		}{{long, make7}, {short, model7}, {sameLenA, make7}, {sameLenB, model7}} {
			line, _ := json.Marshal(map[string]any{"op": "query", "sql": tc.sql, "params": []int{7}})
			resp := c.roundTrip(string(line))
			if !resp.OK || fmt.Sprint(resp.Rows) != fmt.Sprint(tc.want) || resp.Stats.CacheHit != (round == 1) {
				t.Fatalf("round %d %q: %+v (stats %+v), want rows %v", round, tc.sql, resp, resp.Stats, tc.want)
			}
		}
	}
	for _, sql := range []string{long, short, sameLenA, sameLenB} {
		p, ok := srv.Cache().Get(server.NormalizeSQL(sql))
		if !ok || server.NormalizeSQL(p.SQL()) != server.NormalizeSQL(sql) {
			t.Fatalf("cache entry for %q: present=%v", sql, ok)
		}
	}
	// A prepared name outlives its line too.
	if r := c.roundTrip(`{"op":"prepare","name":"by_id_and_a_long_name","sql":"` + short + `"}`); !r.OK {
		t.Fatal(r.Error)
	}
	c.roundTrip(`{"op":"ping","pad":"` + strings.Repeat("x", 200) + `"}`)
	if r := c.roundTrip(`{"op":"execute","name":"by_id_and_a_long_name","params":[7]}`); !r.OK || fmt.Sprint(r.Rows) != fmt.Sprint(model7) {
		t.Fatalf("execute after the line was overwritten: %+v", r)
	}
}

// TestResponseBufferNotRetained: a connection reuses its response buffer,
// but one multi-megabyte answer must not stay pinned for the session.
func TestResponseBufferNotRetained(t *testing.T) {
	srv, _, _ := startServer(t, server.Config{})
	big := &server.Response{ID: 1, OK: true, Cols: []string{"blob"}, Rows: [][]any{{strings.Repeat("x", 5<<20)}}}
	point := &server.Response{ID: 2, OK: true, Cols: []string{"make"}, Rows: [][]any{{"FORD"}}}
	var sizes []int
	w := writerFunc(func(p []byte) (int, error) { sizes = append(sizes, len(p)); return len(p), nil })
	retained, err := srv.WriteResponses(w, big, point)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] < 5<<20 || sizes[1] > 100 {
		t.Fatalf("writes of %v bytes, want one per response", sizes)
	}
	if retained > server.MaxRetainedLine {
		t.Fatalf("the connection keeps a %d-byte buffer after a point answer (bound %d)", retained, server.MaxRetainedLine)
	}
	if retained, _ = srv.WriteResponses(io.Discard, point, point); retained == 0 {
		t.Fatal("point answers do not reuse the buffer")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestNonFiniteResult: an answer JSON cannot carry fails its statement — one
// error response, one counted error — and the session goes on; it used to
// end the session with no response at all.
func TestNonFiniteResult(t *testing.T) {
	inst, _, err := server.OpenWorkload("tpch", 0.05, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{})
	tcp, httpA, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context())
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for key := 900001; key <= 900002; key++ {
		if _, err := c.Exec("insert into SUPPLIER values (?, ?, ?, ?, ?, ?, ?)", key, "Supplier#inf", "addr", 777, "11-000", 1.7e308, "none"); err != nil {
			t.Fatal(err)
		}
	}
	const overflow = "select SUM(S.acctbal) from SUPPLIER S where S.nationkey = 777"
	before := srv.Stats().Errors
	_, _, _, err = c.Query(overflow)
	se, ok := err.(*client.ServerError)
	if !ok || se.Code != "statement" || !strings.Contains(se.Msg, "non-finite") {
		t.Fatalf("overflowing SUM: %v, want a statement error naming the non-finite number", err)
	}
	if got := srv.Stats().Errors - before; got != 1 {
		t.Fatalf("counted %d errors, want 1", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("the session did not survive: %v", err)
	}
	resp, err := http.Get("http://" + httpA + "/query?q=" + url.QueryEscape(overflow))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `{"ok":false,"error":"server: result holds a non-finite number","code":"statement"}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("HTTP /query: %d %q, want 400 %q", resp.StatusCode, body, want)
	}
}
