package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"zidian/internal/server/client"
)

// sample is one completed statement as its client saw it.
type sample struct {
	end   time.Duration // completion time since the loop started
	lat   time.Duration
	write bool
}

// ledger accumulates the acknowledged writes of a phase.
type ledger struct {
	net       map[string]int64 // inserts − deletes, per relation
	writes    int64
	userBytes int64 // encoded bytes of the inserted tuples
}

func newLedger() *ledger { return &ledger{net: map[string]int64{}} }

func (l *ledger) record(st Stmt, affected int) {
	if st.Delta > 0 {
		l.userBytes += int64(st.UserBytes)
	}
	l.net[st.Rel] += int64(st.Delta * affected)
	l.writes++
}

func (l *ledger) merge(o *ledger) {
	for rel, n := range o.net {
		l.net[rel] += n
	}
	l.writes += o.writes
	l.userBytes += o.userBytes
}

// counters is a point-in-time reading of the two interfaces the counted
// per-layer metrics come from: the server's /metrics exposition (kv ops and
// bytes, plan cache events, latency and admission histograms, posting and
// block reads, commit batches, MVCC versions) and the Go runtime.
type counters struct {
	prom promSamples
	mem  runtime.MemStats
}

func readCounters(env *Env) counters {
	var c counters
	var buf bytes.Buffer
	env.Srv.MetricsRegistry().WritePrometheus(&buf)
	c.prom = parseProm(buf.Bytes())
	runtime.ReadMemStats(&c.mem)
	return c
}

// loadLog is what one client, or all of them together, observed.
type loadLog struct {
	samples []sample // completions inside the measured window
	all     *ledger  // acknowledged writes, warm-up included
	timed   *ledger  // acknowledged writes inside the window
	sent    int      // statements sent, warm-up included
	failed  int
	errs    []string // the first few failures, for the report
}

func newLoadLog() loadLog { return loadLog{all: newLedger(), timed: newLedger()} }

func (l *loadLog) merge(o *loadLog) {
	l.samples = append(l.samples, o.samples...)
	l.all.merge(o.all)
	l.timed.merge(o.timed)
	l.sent += o.sent
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
}

// loadRun is the closed loop's result: every client's log merged, and the
// counters around the window.
type loadRun struct {
	loadLog
	window time.Duration
	before counters // read when the warm-up ended
	after  counters // read when the last client stopped
}

// runLoad drives the server in a closed loop: C connections, one goroutine
// each, every goroutine sending its next statement only after the previous
// one answered. Statements that complete during the warm-up are discarded;
// the counters are read at the warm-up boundary and after the last
// completion, so per-statement ratios cover the same interval as the
// samples (give or take the C statements in flight at the boundary).
func runLoad(env *Env, w *Workload, seed int64, warmup, window time.Duration) (*loadRun, error) {
	clients := parallelism()
	conns := make([]*client.Client, clients)
	for i := range conns {
		c, err := client.Dial(env.Addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	run := &loadRun{loadLog: newLoadLog(), window: window}
	perClient := make([]loadLog, clients)
	start := time.Now()
	deadline := start.Add(warmup + window)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			perClient[i] = clientLoop(conns[i], NewGen(w, seed, i, env.NVehicles), start, deadline, warmup)
		}(i)
	}
	time.Sleep(time.Until(start.Add(warmup)))
	run.before = readCounters(env)
	wg.Wait()
	run.after = readCounters(env)
	for i := range perClient {
		run.merge(&perClient[i])
	}
	return run, nil
}

func clientLoop(c *client.Client, g *Gen, start, deadline time.Time, warmup time.Duration) loadLog {
	log := newLoadLog()
	for {
		st := g.Next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			return log
		}
		log.sent++
		affected, err := send(c, st)
		now := time.Now()
		inWindow := now.Sub(start) >= warmup
		if err != nil {
			// A failed or refused statement counts against the run whenever
			// it happens; the run is rejected if there is even one.
			log.failed++
			if len(log.errs) < 3 {
				log.errs = append(log.errs, fmt.Sprintf("%s: %v", st.Template, err))
			}
			var refused *client.ServerError
			if !errors.As(err, &refused) {
				return log // the connection itself failed
			}
			continue
		}
		if st.Write {
			log.all.record(st, affected)
			if inWindow {
				log.timed.record(st, affected)
			}
		}
		if inWindow {
			log.samples = append(log.samples, sample{end: now.Sub(start) - warmup, lat: now.Sub(t0), write: st.Write})
		}
	}
}

// send runs one statement: reads through the lean query op (rows stay
// undecoded so the generator does not spend the server's cores on them),
// writes through exec.
func send(c *client.Client, st Stmt) (affected int, err error) {
	if !st.Write {
		_, err = c.QueryLean(st.SQL, st.Params...)
		return 0, err
	}
	resp, err := c.Exec(st.SQL, st.Params...)
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}
