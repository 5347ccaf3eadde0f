// Workload replay: re-drive a capture file produced by the server's
// -capture sink. Each capture line holds an anonymized statement template
// and the kinds of its bound values — never the values themselves — so
// replay synthesizes deterministic binds per recorded kind and reproduces
// the captured template mix, pacing by the recorded arrival deltas (scaled
// by a speed factor) or as fast as possible.
package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"zidian/internal/server"
)

// ReadCapture loads a capture file: one JSON CaptureEntry per line.
// Malformed lines are skipped (a capture cut off mid-line by server shutdown
// is still replayable); an empty result is an error. Entries are returned in
// arrival order.
func ReadCapture(path string) ([]server.CaptureEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<22)
	var entries []server.CaptureEntry
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e server.CaptureEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Template == "" {
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("loadgen: capture %s holds no replayable entries", path)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].DTMicros < entries[j].DTMicros })
	return entries, nil
}

// ReplayOptions parameterize one replay run.
type ReplayOptions struct {
	// Addr is the target server's wire-protocol TCP address.
	Addr string
	// Path is the capture file.
	Path string
	// Clients bounds the concurrent connections (default 16). Entries of one
	// captured session always replay on one connection, in capture order.
	Clients int
	// Speed scales the recorded arrival deltas: 1 reproduces the captured
	// pacing, 2 replays twice as fast, 0 replays as fast as possible.
	Speed float64
	// Seed makes the synthesized binds deterministic (default 1): two
	// replays of one capture with one seed issue byte-identical statements.
	Seed int64
	// ParamPool bounds the synthesized numeric/string bind domain
	// (default 100), mirroring Options.ParamPool.
	ParamPool int
	// MetricsURL and MetricsStrict behave as in Options.
	MetricsURL    string
	MetricsStrict bool
}

func (o ReplayOptions) normalized() ReplayOptions {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ParamPool <= 0 {
		o.ParamPool = 100
	}
	return o
}

// synthBind deterministically synthesizes one bind value for a recorded
// kind: the (seed, statement index, position) triple fully determines the
// value, so a replay is reproducible statement-for-statement.
func synthBind(kind string, seed int64, idx, pos, pool int) any {
	r := rand.New(rand.NewSource(seed + int64(idx)*1000003 + int64(pos)*7919))
	switch kind {
	case "float":
		return float64(r.Intn(pool)) + 0.5
	case "string":
		return fmt.Sprintf("P%d", r.Intn(pool))
	default: // "int", "any"
		return r.Intn(pool)
	}
}

// Replay re-drives a captured workload against a server. Statements of one
// captured session run on one connection in capture order; distinct sessions
// run concurrently across Clients connections. Errors do not abort the run;
// they are counted. The report's RowDigest folds every successful SELECT's
// result rows, so two replays can be compared for byte-identical reads.
func Replay(opts ReplayOptions) (*Report, error) {
	opts = opts.normalized()
	entries, err := ReadCapture(opts.Path)
	if err != nil {
		return nil, err
	}

	// Partition by captured session, preserving order: session affinity keeps
	// per-connection statement ordering faithful to the original run.
	nClients := opts.Clients
	if nClients > len(entries) {
		nClients = len(entries)
	}
	type job struct {
		idx int // global index into entries, keys the synthesized binds
		e   *server.CaptureEntry
	}
	queues := make([][]job, nClients)
	sessClient := make(map[uint64]int)
	next := 0
	for i := range entries {
		e := &entries[i]
		ci, ok := sessClient[e.Session]
		if !ok {
			ci = next % nClients
			sessClient[e.Session] = ci
			next++
		}
		queues[ci] = append(queues[ci], job{idx: i, e: e})
	}

	clients, err := dialAll(opts.Addr, nClients)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)

	type workerResult struct {
		lat    []int64
		errs   int64
		digest uint64
	}
	results := make([]workerResult, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i]
			res := &results[i]
			res.lat = make([]int64, 0, len(queues[i]))
			for _, j := range queues[i] {
				if opts.Speed > 0 {
					due := start.Add(time.Duration(float64(j.e.DTMicros)/opts.Speed) * time.Microsecond)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				params := make([]any, len(j.e.Binds))
				for p, kind := range j.e.Binds {
					params[p] = synthBind(kind, opts.Seed, j.idx, p, opts.ParamPool)
				}
				t0 := time.Now()
				if j.e.Verb == "select" {
					cols, rows, _, err := c.Query(j.e.Template, params...)
					res.lat = append(res.lat, time.Since(t0).Microseconds())
					if err != nil {
						res.errs++
						continue
					}
					res.digest ^= rowHash(j.idx, cols, rows)
				} else {
					_, err := c.Exec(j.e.Template, params...)
					res.lat = append(res.lat, time.Since(t0).Microseconds())
					// Replayed DDL routinely collides with objects the
					// original run created; that is not a replay failure.
					if err != nil && !strings.Contains(err.Error(), "already") {
						res.errs++
					}
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []int64
	var digest uint64
	rep := &Report{
		Bench:       "replay",
		Clients:     nClients,
		WallSeconds: wall.Seconds(),
		Speed:       opts.Speed,
	}
	for i := range results {
		all = append(all, results[i].lat...)
		rep.Requests += int64(len(results[i].lat))
		rep.Errors += results[i].errs
		digest ^= results[i].digest
	}
	if wall > 0 {
		rep.QPS = float64(rep.Requests) / wall.Seconds()
	}
	rep.Latency = percentiles(all)
	rep.RowDigest = fmt.Sprintf("%016x", digest)
	if err := serverSide(rep, clients[0], opts.MetricsURL, opts.MetricsStrict); err != nil {
		return nil, err
	}
	return rep, nil
}

// rowHash hashes one SELECT answer, keyed by the statement's global index so
// identical answers to different statements do not cancel under XOR folding.
func rowHash(idx int, cols []string, rows [][]any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "#%d|", idx)
	for _, c := range cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(h, "%v|", v)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
