// Command zidian-sql is an interactive SQL shell over a generated workload
// database mapped to a BaaV store. Every answer is accompanied by the KBA
// plan, its scan-free/bounded classification, and data-access statistics —
// a direct window into what Zidian does with a query.
//
// Usage:
//
//	zidian-sql -workload tpch -scale 0.5
//	> select PS.suppkey, SUM(PS.supplycost) from PARTSUPP PS, SUPPLIER S,
//	  NATION N where PS.suppkey = S.suppkey and S.nationkey = N.nationkey
//	  and N.name = 'GERMANY' group by PS.suppkey
//
// Meta commands: \schema (BaaV schema), \tables (relations), \q (quit).
// SHOW STATEMENTS prints this session's per-template statement statistics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zidian"
	"zidian/internal/obs"
	"zidian/internal/server"
	"zidian/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "tpch", "workload: tpch, mot, airca")
		scale   = flag.Float64("scale", 0.25, "dataset scale")
		seed    = flag.Int64("seed", 7, "generator seed")
		workers = flag.Int("workers", 4, "SQL-layer workers")
	)
	flag.Parse()

	w, err := workload.Generate(*name, workload.Spec{Scale: *scale, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zidian-sql:", err)
		os.Exit(1)
	}
	inst, err := zidian.Open(w.DB, w.Schema, zidian.Options{Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "zidian-sql:", err)
		os.Exit(1)
	}
	fmt.Printf("zidian-sql: %s at scale %g (%d tuples); \\q to quit\n",
		*name, *scale, w.DB.Cardinality())
	stmts := obs.NewStmtStats(256)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Print("> ") }
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "\\q" || line == "quit" || line == "exit":
			return
		case line == "\\tables":
			for _, s := range w.DB.Schemas() {
				fmt.Printf("  %s (%d tuples)\n", s, w.DB.Relation(s.Name).Cardinality())
			}
			prompt()
			continue
		case line == "\\schema":
			for _, kvs := range w.Schema.KVs {
				fmt.Printf("  %s  [degree %d]\n", kvs, inst.Store().Degree(kvs.Name))
			}
			prompt()
			continue
		case line == "\\queries":
			for _, q := range w.Queries {
				tag := "non scan-free"
				if q.ScanFree {
					tag = "scan-free"
				}
				fmt.Printf("  %-28s %s\n", q.Name, tag)
			}
			prompt()
			continue
		case line == "":
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString(" ")
		// Multiline input continues until the statement parses or a line
		// ends in a semicolon.
		src := pending.String()
		kind, err := zidian.StatementInfo(src)
		if err != nil && !strings.HasSuffix(line, ";") {
			fmt.Print("... ")
			continue
		}
		pending.Reset()
		runQuery(inst, stmts, src, kind)
		prompt()
	}
}

// runQuery runs one statement of the given kind; a statement that does not
// parse takes the SELECT path, which reports the parse error.
func runQuery(inst *zidian.Instance, stmts *obs.StmtStats, src string, stmtKind zidian.StmtKind) {
	if stmtKind == zidian.StmtShow {
		showStatements(stmts)
		return
	}
	template, _ := server.AnonymizeSQL(server.NormalizeSQL(src), nil)
	if stmtKind == zidian.StmtInsert || stmtKind == zidian.StmtDelete {
		verb := "insert"
		if stmtKind == zidian.StmtDelete {
			verb = "delete"
		}
		t0 := time.Now()
		out, err := inst.Exec(src)
		u := obs.StmtUsage{Verb: verb, Template: template, Wall: time.Since(t0), Err: err != nil}
		if out != nil {
			u.Rows = int64(out.Affected)
		}
		stmts.Record(u)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("-- %d rows affected\n", out.Affected)
		return
	}
	t0 := time.Now()
	res, stats, err := inst.Query(src)
	u := obs.StmtUsage{Verb: "select", Template: template, Wall: time.Since(t0), Err: err != nil}
	if res != nil {
		u.Rows = int64(len(res.Rows))
	}
	stmts.Record(u)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(strings.Join(res.Cols, " | "))
	max := len(res.Rows)
	if max > 20 {
		max = 20
	}
	for _, row := range res.Rows[:max] {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if len(res.Rows) > max {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	}
	kind := "not scan-free"
	if stats.ScanFree {
		kind = "scan-free"
		if stats.Bounded {
			kind += ", bounded"
		}
	}
	fmt.Printf("-- %d rows; %s; %d gets, %d values, %s\n",
		len(res.Rows), kind, stats.Gets, stats.DataValues, stats.Wall)
	fmt.Printf("-- plan: %s\n", stats.Plan)
}

// showStatements prints this session's per-template statistics, the shell's
// local analogue of the server's SHOW STATEMENTS.
func showStatements(stmts *obs.StmtStats) {
	snap := stmts.Snapshot()
	entries := snap.Statements
	obs.SortStmtEntries(entries, obs.SortByTotalTime)
	if snap.Evicted != nil {
		entries = append(entries, *snap.Evicted)
	}
	if len(entries) == 0 {
		fmt.Println("-- no statements recorded yet")
		return
	}
	fmt.Printf("%-56s %-7s %6s %6s %8s %10s %8s %8s\n",
		"template", "verb", "calls", "errs", "rows", "total_ms", "mean_us", "p95_us")
	for _, e := range entries {
		name := e.Template
		if len(name) > 56 {
			name = name[:53] + "..."
		}
		fmt.Printf("%-56s %-7s %6d %6d %8d %10.2f %8.0f %8.0f\n",
			name, e.Verb, e.Calls, e.Errors, e.Rows,
			float64(e.TotalNanos)/1e6, e.MeanMicros, e.P95Micros)
	}
	fmt.Printf("-- %d templates tracked (capacity %d, %d evictions)\n",
		snap.Tracked, snap.Capacity, snap.Evictions)
}
