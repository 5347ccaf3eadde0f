package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"zidian/internal/server"
	"zidian/internal/server/client"
)

// scrapeMetrics fetches the server's /metrics page as text.
func scrapeMetrics(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns a sample's value from scraped text; the name must
// match the full sample name including labels.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == sample {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("sample %s value %q: %v", sample, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("sample %s not found in scrape:\n%s", sample, text)
	return 0
}

// metricValueOr is metricValue for labels that may not have occurred —
// counter vecs expose only observed label values, so absence means zero.
func metricValueOr(text, sample string) float64 {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == sample {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// TestMetricsEndpoint drives a little traffic and checks the required
// families are exposed with non-zero values in valid Prometheus text.
func TestMetricsEndpoint(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 5 * time.Second})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, _, _, err := c.Query(fmt.Sprintf(testTemplates[0], i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec("insert into VEHICLE values (900001, 'ZMAKE', 'ZM-1', 'PETROL', 'BLACK', 2026, 1600, 'R-1', 1200, 4, 120, 'BAND-A', '2026-01-15')"); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, httpA)
	if v := metricValue(t, text, `zidian_queries_total{verb="select"}`); v < 5 {
		t.Fatalf("select counter = %g, want >= 5", v)
	}
	if v := metricValue(t, text, `zidian_queries_total{verb="insert"}`); v != 1 {
		t.Fatalf("insert counter = %g, want 1", v)
	}
	if v := metricValue(t, text, `zidian_admission_total{result="admitted"}`); v < 6 {
		t.Fatalf("admitted = %g, want >= 6", v)
	}
	if v := metricValue(t, text, `zidian_kv_ops_total{op="get"}`); v == 0 {
		t.Fatal("kv get counter is zero after point lookups")
	}
	// The insert's fresh blocks are the only ones the version directory
	// lists: every loaded block is as loaded.
	if v := metricValue(t, text, `zidian_mvcc_directory_entries`); v < 1 || v > 10 {
		t.Fatalf("directory entries = %g after one insert, want its few blocks", v)
	}
	if v := metricValue(t, text, `zidian_mvcc_directory_bytes{kind="live"}`); v == 0 {
		t.Fatal("directory live bytes are zero beside listed entries")
	}
	if v := metricValue(t, text, `zidian_mvcc_versions_live`); v < 100 {
		t.Fatalf("versions live = %g, want every loaded block", v)
	}
	if v := metricValue(t, text, `zidian_query_duration_seconds_count{verb="select"}`); v < 5 {
		t.Fatalf("latency histogram count = %g, want >= 5", v)
	}
	for _, family := range []string{
		"zidian_plan_cache_events_total", "zidian_plan_cache_size",
		"zidian_admission_in_flight", "zidian_blocks_fetched_total",
		"zidian_query_duration_seconds_bucket", "zidian_sessions_total",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("family %s missing from /metrics", family)
		}
	}
	// Every histogram family carries the exposition triple.
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if !strings.Contains(text, "zidian_admission_wait_seconds"+suffix) {
			t.Fatalf("admission wait histogram missing %s", suffix)
		}
	}
}

// TestMetricsNodeWriteHold: one write advances the time write batches held
// the storage nodes' locks, summed over the nodes.
func TestMetricsNodeWriteHold(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: 5 * time.Second})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held := func() float64 {
		sum, nodes := 0.0, 0
		for _, line := range strings.Split(scrapeMetrics(t, httpA), "\n") {
			if strings.HasPrefix(line, "zidian_kv_node_write_hold_seconds_total{") {
				sum += metricValue(t, line, strings.Fields(line)[0])
				nodes++
			}
		}
		if nodes == 0 {
			t.Fatal("zidian_kv_node_write_hold_seconds_total has no node samples")
		}
		return sum
	}
	before := held()
	if _, err := c.Exec("insert into VEHICLE values (900002, 'ZMAKE', 'ZM-2', 'PETROL', 'BLACK', 2026, 1600, 'R-1', 1200, 4, 120, 'BAND-A', '2026-01-15')"); err != nil {
		t.Fatal(err)
	}
	if after := held(); after <= before {
		t.Fatalf("write hold = %gs after a write, %gs before", after, before)
	}
}

// TestMetricsGoCollector: the collector families come from runtime/metrics
// at scrape time — a forced GC between two scrapes moves the cycle counter,
// and the live heap holds the server's own data.
func TestMetricsGoCollector(t *testing.T) {
	_, _, httpA := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: time.Second})
	runtime.GC()
	before := scrapeMetrics(t, httpA)
	runtime.GC()
	after := scrapeMetrics(t, httpA)
	if b, a := metricValue(t, before, "zidian_go_gc_cycles_total"), metricValue(t, after, "zidian_go_gc_cycles_total"); a <= b || b < 1 {
		t.Fatalf("gc cycles %g then %g around a forced GC", b, a)
	}
	for _, sample := range []string{"zidian_go_heap_live_bytes", "zidian_go_heap_objects", "zidian_go_gc_cpu_seconds_total"} {
		if v := metricValue(t, after, sample); v <= 0 {
			t.Fatalf("%s = %g, want > 0", sample, v)
		}
	}
}

// TestPlanCacheMetricsAcrossDDL asserts the registry's plan-cache counters
// through a miss → hit → DDL invalidation → stale-miss sequence.
func TestPlanCacheMetricsAcrossDDL(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: 5 * time.Second})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const q = "select V.make, V.model from VEHICLE V where V.vehicle_id = 3"

	if _, _, _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	text := scrapeMetrics(t, httpA)
	misses0 := metricValue(t, text, `zidian_plan_cache_events_total{event="miss"}`)
	hits0 := metricValue(t, text, `zidian_plan_cache_events_total{event="hit"}`)
	epoch0 := metricValue(t, text, "zidian_plan_cache_epoch")
	if misses0 == 0 {
		t.Fatal("first compile did not count as a miss")
	}

	if _, _, _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	text = scrapeMetrics(t, httpA)
	if hits1 := metricValue(t, text, `zidian_plan_cache_events_total{event="hit"}`); hits1 != hits0+1 {
		t.Fatalf("repeat query: hits %g -> %g, want +1", hits0, hits1)
	}

	// DDL advances the epoch and invalidates every cached plan.
	if _, err := c.Exec("create index ix_obs_vehicle_speed on OBSERVATION(speed)"); err != nil {
		t.Fatal(err)
	}
	text = scrapeMetrics(t, httpA)
	if inv := metricValue(t, text, `zidian_plan_cache_events_total{event="invalidation"}`); inv == 0 {
		t.Fatal("DDL did not count an invalidation")
	}
	if epoch1 := metricValue(t, text, "zidian_plan_cache_epoch"); epoch1 <= epoch0 {
		t.Fatalf("epoch %g -> %g, want advance", epoch0, epoch1)
	}

	// The cached plan now trails the epoch: the next run recompiles.
	if _, _, _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	text = scrapeMetrics(t, httpA)
	misses2 := metricValue(t, text, `zidian_plan_cache_events_total{event="miss"}`)
	stale := metricValue(t, text, `zidian_plan_cache_events_total{event="stale_drop"}`)
	if misses2 <= misses0 && stale == 0 {
		t.Fatalf("post-DDL query served from a stale plan (misses %g, stale drops %g)", misses2, stale)
	}
}

// syncBuffer is a goroutine-safe writer for capturing the slow-query log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog: with a zero-distance threshold every statement is slow;
// the log line carries the normalized template, the verb, and the kv
// breakdown as structured JSON.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, tcp, _ := startServer(t, server.Config{
		MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: 5 * time.Second,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Query("select V.make from VEHICLE V where V.vehicle_id = ?", 7); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no slow-query log line emitted")
	}
	var e struct {
		TS         string `json:"ts"`
		Verb       string `json:"verb"`
		Template   string `json:"template"`
		BindArity  int    `json:"bindArity"`
		Relations  []string
		WallMicros int64 `json:"wallMicros"`
		KV         struct {
			Gets int64 `json:"gets"`
		} `json:"kv"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if e.Verb != "select" {
		t.Fatalf("verb = %q", e.Verb)
	}
	if !strings.Contains(e.Template, "?") || strings.Contains(e.Template, "7") {
		t.Fatalf("template leaked the literal or lost the placeholder: %q", e.Template)
	}
	if e.BindArity != 1 {
		t.Fatalf("bindArity = %d, want 1", e.BindArity)
	}
	if e.KV.Gets == 0 {
		t.Fatal("slow log line missing kv breakdown")
	}
	if e.TS == "" || e.WallMicros < 0 {
		t.Fatalf("bad line fields: %+v", e)
	}

	// An ad hoc statement is lifted onto its template, which still holds the
	// range literal: the log gets the anonymized template and the kinds'
	// count, never the lifted value nor the literal the lift left behind.
	if _, _, _, err := c.Query("select O.speed from OBSERVATION O where O.vehicle_id = 424242 and O.speed > 7171"); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e); err != nil {
		t.Fatal(err)
	}
	if want := "select O.speed from OBSERVATION O where O.vehicle_id = ? and O.speed > ?"; e.Template != want || e.BindArity != 2 {
		t.Fatalf("lifted statement logged as %q arity %d, want %q arity 2", e.Template, e.BindArity, want)
	}
	if raw := buf.String(); strings.Contains(raw, "424242") || strings.Contains(raw, "7171") {
		t.Fatalf("slow log holds a literal of the lifted statement:\n%s", raw)
	}
}

// TestQueueTimeoutCodeAndWaitRecorded: statements rejected by admission
// carry a machine-readable retryable code, and their queue wait is still
// recorded in the admission-wait histogram (the wait is most interesting
// exactly when it ended in a timeout).
func TestQueueTimeoutCodeAndWaitRecorded(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		QueueTimeout:  2 * time.Millisecond,
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var rejections, retryable int
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
			for i := 0; i < 40; i++ {
				_, _, _, err := c.Query(fmt.Sprintf(testTemplates[2], (g+i)%50))
				if err == nil {
					continue
				}
				var se *client.ServerError
				if !errors.As(err, &se) {
					t.Errorf("failure is not a ServerError: %v", err)
					return
				}
				mu.Lock()
				rejections++
				if se.Retryable() {
					retryable++
				}
				mu.Unlock()
				if se.Code != "queue_timeout" && se.Code != "overloaded" {
					t.Errorf("rejection code = %q", se.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if rejections == 0 {
		t.Skip("overload did not trigger on this host")
	}
	if retryable != rejections {
		t.Fatalf("retryable = %d of %d rejections", retryable, rejections)
	}
	text := scrapeMetrics(t, httpA)
	waits := metricValue(t, text, "zidian_admission_wait_seconds_count")
	admitted := metricValue(t, text, `zidian_admission_total{result="admitted"}`)
	// Satellite invariant: every acquire — including ones that timed out —
	// observed into the wait histogram, so waits strictly exceed admissions
	// whenever anything was rejected from the queue.
	timedOut := metricValue(t, text, `zidian_admission_total{result="timed_out"}`)
	if waits < admitted+timedOut {
		t.Fatalf("admission waits = %g, want >= admitted %g + timed out %g", waits, admitted, timedOut)
	}
	if v := metricValueOr(text, `zidian_query_errors_total{reason="queue_timeout"}`); timedOut > 0 && v == 0 {
		t.Fatal("queue timeouts not counted in error reasons")
	}
	rejected := metricValue(t, text, `zidian_admission_total{result="rejected"}`)
	errTotal := metricValueOr(text, `zidian_query_errors_total{reason="queue_timeout"}`) +
		metricValueOr(text, `zidian_query_errors_total{reason="overloaded"}`)
	if errTotal != timedOut+rejected {
		t.Fatalf("error-reason counters = %g, want timed_out %g + rejected %g", errTotal, timedOut, rejected)
	}
}

// TestExplainAnalyzeOverWire: EXPLAIN ANALYZE executes the inner SELECT and
// returns the annotated plan as rows; the verb gets its own counter.
func TestExplainAnalyzeOverWire(t *testing.T) {
	_, tcp, httpA := startServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: 5 * time.Second})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec("explain analyze select V.make, V.model from VEHICLE V where V.vehicle_id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) < 2 {
		t.Fatalf("plan rows = %d, want headline + tree", len(resp.Rows))
	}
	text := fmt.Sprint(resp.Rows)
	if !strings.Contains(text, "rows=") || !strings.Contains(text, "kvops=") {
		t.Fatalf("analyze output missing runtime annotations: %s", text)
	}
	if !strings.Contains(text, "totals:") {
		t.Fatalf("analyze output missing totals line: %s", text)
	}
	m := scrapeMetrics(t, httpA)
	if v := metricValue(t, m, `zidian_queries_total{verb="explain_analyze"}`); v != 1 {
		t.Fatalf("explain_analyze counter = %g, want 1", v)
	}
}
