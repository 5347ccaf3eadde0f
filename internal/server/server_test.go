package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zidian/internal/server"
	"zidian/internal/server/client"
)

// startServer opens a small MOT instance and serves it on loopback ports.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string, string) {
	t.Helper()
	inst, _, err := server.OpenWorkload("mot", 0.2, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, cfg)
	tcp, httpA, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, tcp, httpA
}

var testTemplates = []string{
	"select T.test_date, T.result, T.mileage from TEST T where T.vehicle_id = %d",
	"select V.make, V.model from VEHICLE V where V.vehicle_id = %d",
	"select COUNT(*), AVG(T.mileage) from TEST T where T.vehicle_id = %d",
	"select O.obs_date, O.speed from OBSERVATION O where O.vehicle_id = %d and O.speed > 70",
}

// TestServerConcurrentClients issues queries from many goroutines over real
// TCP connections and checks every answer against a sequentially computed
// expectation. Run under -race this doubles as the serving-layer race test.
func TestServerConcurrentClients(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})

	const params = 8
	type key struct{ tmpl, param int }
	expected := make(map[key][][]any)
	c0, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tmpl := range testTemplates {
		for p := 0; p < params; p++ {
			_, rows, _, err := c0.Query(fmt.Sprintf(tmpl, p))
			if err != nil {
				t.Fatalf("seed query: %v", err)
			}
			expected[key{ti, p}] = rows
		}
	}
	c0.Close()

	const goroutines = 32
	const perG = 24
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(tcp)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				ti := (g + i) % len(testTemplates)
				p := (g * i) % params
				_, rows, stats, err := c.Query(fmt.Sprintf(testTemplates[ti], p))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !stats.ScanFree {
					errs <- fmt.Errorf("template %d should be scan-free", ti)
					return
				}
				if want := expected[key{ti, p}]; !sameRows(rows, want) {
					errs <- fmt.Errorf("template %d param %d: got %v want %v", ti, p, rows, want)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if st.Errors != 0 {
		t.Fatalf("server recorded %d errors", st.Errors)
	}
	if st.PlanCache.HitRate < 0.9 {
		t.Fatalf("plan cache hit rate %.2f, want > 0.9 on a repeated-template workload", st.PlanCache.HitRate)
	}
}

// sameRows compares unordered result sets (JSON round-trips make numeric
// types float64 on the client side, so compare via rendered form).
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, r := range a {
		count[fmt.Sprint(r)]++
	}
	for _, r := range b {
		count[fmt.Sprint(r)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestServerPreparedStatements(t *testing.T) {
	_, tcp, _ := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sql := "select T.test_date, T.result from TEST T where T.vehicle_id = 3"
	if err := c.Prepare("q1", sql); err != nil {
		t.Fatal(err)
	}
	directCols, direct, _, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cols, rows, stats, err := c.Execute("q1")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cols, directCols) {
			t.Fatalf("cols = %v, want %v", cols, directCols)
		}
		if !sameRows(rows, direct) {
			t.Fatalf("prepared answer %v != direct answer %v", rows, direct)
		}
		if !stats.CacheHit {
			t.Fatal("prepared execution should report plan reuse")
		}
	}
	if err := c.ClosePrepared("q1"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Execute("q1"); err == nil {
		t.Fatal("execute after close should fail")
	}
	if err := c.Prepare("", sql); err == nil {
		t.Fatal("prepare without a name should fail")
	}
}

// TestServerDMLUnderLoad exercises the write path (exclusive lock) while
// readers run, then verifies the maintained store answers queries about the
// new tuple.
func TestServerDMLUnderLoad(t *testing.T) {
	_, tcp, _ := startServer(t, server.Config{MaxConcurrent: 4})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(tcp)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, _, err := c.Query(fmt.Sprintf(testTemplates[0], (g*13+i)%20)); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(g)
	}

	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const vid = 1 << 20
	ins := fmt.Sprintf("insert into VEHICLE values (%d, 'FORD', 'FORD-M999', 'PETROL', 'BLACK', 2005, 1600, 'LONDON', 1200, 4, 120, 'BAND-A', '2005-01-01')", vid)
	resp, err := c.Exec(ins)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("insert affected %d", resp.Affected)
	}
	_, rows, _, err := c.Query(fmt.Sprintf("select V.make, V.model from VEHICLE V where V.vehicle_id = %d", vid))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "FORD" {
		t.Fatalf("query after insert: %v", rows)
	}
	resp, err = c.Exec(fmt.Sprintf("delete from VEHICLE where vehicle_id = %d", vid))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("delete affected %d", resp.Affected)
	}
	_, rows, _, err = c.Query(fmt.Sprintf("select V.make from VEHICLE V where V.vehicle_id = %d", vid))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("query after delete: %v", rows)
	}
	close(stop)
	wg.Wait()
}

func TestServerHTTP(t *testing.T) {
	_, _, httpA := startServer(t, server.Config{})
	base := "http://" + httpA

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	q := "select V.make from VEHICLE V where V.vehicle_id = 1"
	resp, err = http.Post(base+"/query", "application/json",
		strings.NewReader(`{"sql": "`+q+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var wire server.Response
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !wire.OK || len(wire.Rows) != 1 {
		t.Fatalf("POST /query: %+v", wire)
	}

	resp, err = http.Get(base + "/query?q=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !wire.OK || len(wire.Rows) != 1 {
		t.Fatalf("GET /query: %+v", wire)
	}

	resp, err = http.Get(base + "/query?q=select+nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries < 2 {
		t.Fatalf("stats queries = %d", st.Queries)
	}
}

func TestServerMalformedAndUnknown(t *testing.T) {
	_, tcp, _ := startServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("frobnicate the database"); err == nil {
		t.Fatal("nonsense SQL should fail")
	}
	if _, _, _, err := c.Query("select X.y from NOPE X"); err == nil {
		t.Fatal("unknown relation should fail")
	}
	// The connection survives statement errors.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerProtocolErrors: a line that is not a request — malformed JSON, or
// longer than the line bound — is answered like every other failure: an
// error with a stable code, counted once. The session survives the first
// and ends after the second.
func TestServerProtocolErrors(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{MaxLineBytes: 1 << 10})
	conn, err := net.Dial("tcp", tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReaderSize(conn, 1<<20)
	roundTrip := func(line string) server.Response {
		t.Helper()
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("response %q: %v", raw, err)
		}
		return resp
	}
	cases := []struct {
		name, line, msg string
	}{
		{"malformed", `{"op": "ping"` + "\n", "malformed request"},
		// Exactly the server's read buffer, unterminated: the server has
		// consumed every byte when it gives up on the line, so the
		// connection closes cleanly behind its answer.
		{"oversized", strings.Repeat("x", 64<<10), "request line exceeds 1024 bytes"},
	}
	for _, tc := range cases {
		before := srv.Stats().Errors
		resp := roundTrip(tc.line)
		if resp.OK || resp.Code != "protocol" || !strings.Contains(resp.Error, tc.msg) {
			t.Fatalf("%s line: response %+v, want code protocol and %q", tc.name, resp, tc.msg)
		}
		if got := srv.Stats().Errors - before; got != 1 {
			t.Fatalf("%s line counted %d errors, want 1", tc.name, got)
		}
		if tc.name == "malformed" {
			if resp := roundTrip(`{"op": "ping"}` + "\n"); !resp.OK {
				t.Fatalf("session did not survive a malformed line: %+v", resp)
			}
		}
	}
	if _, err := rd.ReadBytes('\n'); err == nil {
		t.Fatal("session still open after an oversized line")
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.2, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{})
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Query(fmt.Sprintf(testTemplates[0], 1)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := client.Dial(tcp); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestServerOverloadSheds(t *testing.T) {
	srv, tcp, _ := startServer(t, server.Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueTimeout:  5 * time.Millisecond,
	})

	var wg sync.WaitGroup
	var failures atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(tcp)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 30; i++ {
				if _, _, _, err := c.Query(fmt.Sprintf(testTemplates[2], (g+i)%50)); err != nil {
					failures.add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	st := srv.Stats()
	if rejectedTotal := st.Admission.Rejected + st.Admission.TimedOut; rejectedTotal != failures.load() {
		t.Fatalf("admission rejected+timedOut = %d, client-observed failures = %d",
			rejectedTotal, failures.load())
	}
	// The server survives overload and keeps answering.
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
