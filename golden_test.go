package zidian

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zidian/internal/golden"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/parallel"
)

// goldenFull reports whether a cell's canonical form is held in full in
// testdata/golden.txt; every other cell is held by its SHA-256.
func goldenFull(c *GridCell) bool {
	return c.Engine == "hash" && c.Nodes == 4 && (c.Workers == 1 || c.Workers == 4)
}

// goldenForm is one form of a grid query as one instance compiled it.
type goldenForm struct {
	name, src string
	params    []Value
	p         *Prepared
	explain   string
	bounded   bool
	headline  string // EXPLAIN ANALYZE's first line
}

// TestGolden: every cell of the grid answers, counts, plans and traces
// exactly what testdata/golden.txt holds. A cell's canonical form is, per
// query and per form (literal, bound template): the rows in delivery order,
// the executor's ExecStats with the scan-free and bounded labels, the
// trace's kv gets, scan steps, posting reads and blocks, the gets and scan
// steps each storage node served, EXPLAIN, and EXPLAIN ANALYZE with its
// times masked.
//
// What a record cannot say is checked as well. Every answer is the
// reference evaluator's, so every cell and form answers the same rows and
// an index-served plan answers what its index-absent arm answers (a LIMIT
// without ORDER BY may answer any LIMIT rows of it); within a cell, the
// template answers exactly the literal's rows and has its scan-free label.
// No plan uses an index before the DDL that creates it. A plan labelled
// scan-free steps no scan in its trace.
func TestGolden(t *testing.T) { runGrid(t).verify(t) }

// The differential and held tests the grid replaced keep their names, each
// TestGolden's whole check of the grid's last run in this process.
func TestDifferentialWorkerCounts(t *testing.T)           { recordedGrid(t).verify(t) }
func TestDifferentialScatterNodeCounts(t *testing.T)      { recordedGrid(t).verify(t) }
func TestDifferentialRangeSuite(t *testing.T)             { recordedGrid(t).verify(t) }
func TestDifferentialWorkloadRangeQueries(t *testing.T)   { verifyPerSuite(t) }
func TestDifferentialLiteralVsParameterized(t *testing.T) { verifyPerSuite(t) }
func TestSuitePlansAnalyzeHeld(t *testing.T)              { recordedGrid(t).verify(t) }
func TestServingTemplatesHoldTheirCounts(t *testing.T)    { recordedGrid(t).verify(t) }
func TestServingTemplatesAnalyzeHeld(t *testing.T)        { recordedGrid(t).verify(t) }
func TestMakeCountsAnalyzeHeld(t *testing.T)              { recordedGrid(t).verify(t) }

// verifyPerSuite makes the check under the per-suite subtests the two
// workload-suite differentials had.
func verifyPerSuite(t *testing.T) {
	for _, name := range []string{"mot", "airca", "tpch"} {
		t.Run(name, func(t *testing.T) { recordedGrid(t).verify(t) })
	}
}

// gridRun is one run of every cell of the grid: the text of
// testdata/golden.txt, and every explicit check that failed.
type gridRun struct {
	text     string
	failures []string
}

// lastGrid is the last complete run of the grid in this process.
var lastGrid atomic.Pointer[gridRun]

// recordedGrid is the last run of the grid in this process, or a new one.
func recordedGrid(t *testing.T) *gridRun {
	t.Helper()
	if g := lastGrid.Load(); g != nil {
		return g
	}
	return runGrid(t)
}

// runGrid runs every cell of the grid once, recording each cell's
// canonical form and every failed check.
func runGrid(t *testing.T) *gridRun {
	t.Helper()
	g := &gridRun{}
	var mu sync.Mutex
	parts := map[string]string{} // by dataset and engine, one parallel subtest each
	eachCell(t, gridNodes, gridWorkers, true, func(t *testing.T, c *GridCell) {
		fail := func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			g.failures = append(g.failures, fmt.Sprintf("%s: ", c)+fmt.Sprintf(format, args...))
		}
		if c.phase.forms == nil {
			c.phase.forms = compileForms(t, c, fail)
		}
		text := golden.CellPrefix + c.String() + "\n" + cellCanonical(t, c, c.phase.forms, fail)
		if !goldenFull(c) {
			text = fmt.Sprintf("%s%s sha256 %x\n", golden.CellPrefix, c, sha256.Sum256([]byte(text)))
		}
		mu.Lock()
		defer mu.Unlock()
		parts[c.Dataset+"/"+c.Engine] += text
	})
	if t.Failed() {
		t.FailNow()
	}
	for _, gd := range gridDatasets {
		for _, eng := range gridEngines {
			g.text += parts[gd.name+"/"+eng]
		}
	}
	slices.Sort(g.failures) // the parallel subtests fail in any order
	lastGrid.Store(g)
	return g
}

// verify fails t with the first of the run's failed checks, and unless its
// text is what testdata/golden.txt holds.
func (g *gridRun) verify(t *testing.T) {
	t.Helper()
	if len(g.failures) > 0 {
		t.Errorf("%d failed checks; the first: %s", len(g.failures), g.failures[0])
	}
	golden.Check(t, "testdata/golden.txt", g.text)
}

// compileForms prepares and explains both forms of every query of the
// cell; a query with no literal to bind has one.
func compileForms(t *testing.T, c *GridCell, fail func(string, ...any)) [][]goldenForm {
	t.Helper()
	out := make([][]goldenForm, len(c.Queries))
	for i, q := range c.Queries {
		out[i] = []goldenForm{{name: "literal", src: q.SQL}}
		if q.Template != q.SQL {
			out[i] = append(out[i], goldenForm{name: "template", src: q.Template, params: q.Params})
		}
		for j := range out[i] {
			f := &out[i][j]
			var err error
			if f.p, err = c.Inst.Prepare(f.src); err != nil {
				t.Fatalf("%s: %s: %q: %v", c, q.Name, f.src, err)
			}
			if f.explain, err = c.Inst.Explain(f.src); err != nil {
				t.Fatalf("%s: %s: %v", c, q.Name, err)
			}
			f.bounded = f.p.info.Bounded(c.Inst.store, c.Inst.opts.MaxBoundedDegree)
			f.headline = "empty result (unsatisfiable constants)"
			if !f.p.info.Empty {
				f.headline = fmt.Sprintf("[%s] %s", c.Inst.planClass(f.p.info), f.p.info.Root)
			}
			if !c.Indexed && strings.Contains(f.explain, "Index") {
				fail("%s: an index operator before the DDL:\n%s", q.Name, f.explain)
			}
		}
		if f := out[i]; len(f) == 2 && f[0].p.info.ScanFree != f[1].p.info.ScanFree {
			fail("%s: scan-free %t literal, %t as a template", q.Name, f[0].p.info.ScanFree, f[1].p.info.ScanFree)
		}
	}
	return out
}

// maskTimes replaces the value of every time= and wall= field with "…".
func maskTimes(s string) string {
	words := strings.Split(s, " ")
	for i, w := range words {
		if strings.HasPrefix(w, "time=") || strings.HasPrefix(w, "wall=") {
			words[i] = w[:5] + "…" + w[len(strings.TrimRight(w, ")")):]
		}
	}
	return strings.Join(words, " ")
}

// cellCanonical runs both forms of every query of the cell once, checks
// each answer into fail, and renders the cell's canonical form. A query with
// no literal to bind is its own template, and runs once.
func cellCanonical(t *testing.T, c *GridCell, forms [][]goldenForm, fail func(string, ...any)) string {
	t.Helper()
	var b strings.Builder
	for i, q := range c.Queries {
		var literalRows [32]byte // SHA-256 of the literal form's rows, sorted
		for j, f := range forms[i] {
			label := fmt.Sprintf("%s: %s %s", c, q.Name, f.name)
			res, m, tr, nodes := runCell(t, c, f.p, f.params)
			if err := checkAnswer(q, res); err != nil {
				fail("%s %s: %v", q.Name, f.name, err)
			}
			kvs := tr.KV.Snapshot()
			if f.p.info.ScanFree && kvs.ScanNexts != 0 {
				fail("%s %s: labelled scan-free, stepped %d scan nexts", q.Name, f.name, kvs.ScanNexts)
			}

			fmt.Fprintf(&b, "-- %s %s\n", q.Name, f.name)
			rows := make([]string, len(res.Rows))
			for i, row := range res.Rows {
				rows[i] = renderRow(row)
			}
			fmt.Fprintf(&b, "rows %d sha256 %x\n", len(rows), sha256.Sum256([]byte(strings.Join(rows, "\n"))))
			if sum := sha256.Sum256([]byte(strings.Join(slices.Sorted(slices.Values(rows)), "\n"))); j == 0 {
				literalRows = sum
			} else if sum != literalRows {
				fail("%s answers other rows than the literal form", q.Name)
			}
			for _, r := range rows[:min(len(rows), 10)] { // the digest holds them all
				b.WriteString("  " + r + "\n")
			}
			fmt.Fprintf(&b, "stats gets=%d blocks=%d data=%d scanned=%d bytes=%d shuffle=%d scan_free=%t bounded=%t\n",
				m.Gets, m.Blocks, m.DataValues, m.ScanBlocks, m.BytesRead, m.ShuffleBytes,
				f.p.info.ScanFree, f.bounded)
			perNode := make([]string, len(nodes))
			for i, n := range nodes {
				perNode[i] = fmt.Sprintf("%d/%d", n.Gets, n.ScanNexts)
			}
			fmt.Fprintf(&b, "trace gets=%d scan_nexts=%d postings=%d blocks=%d per_node_gets/scan_nexts=[%s]\nexplain\n",
				kvs.Gets, kvs.ScanNexts, tr.PostingReads(), tr.Blocks(), strings.Join(perNode, " "))
			for _, l := range strings.Split(f.explain, "\n") {
				b.WriteString("  " + l + "\n")
			}
			analyze := renderAnalyze(c, f, res, tr)
			if goldenFull(c) {
				// The rendering above is the product's, run by run: hold
				// it to what EXPLAIN ANALYZE itself answers.
				product, _, _, err := f.p.Analyze(nil, f.params...)
				if err != nil {
					t.Fatalf("%s: analyze: %v", label, err)
				}
				want := ""
				for _, row := range product.Rows {
					want += "  " + maskTimes(row[0].Str) + "\n"
				}
				if analyze != want {
					t.Fatalf("%s: the traced run renders\n%s\nEXPLAIN ANALYZE answers\n%s", label, analyze, want)
				}
			}
			b.WriteString("analyze\n" + analyze)
		}
	}
	return b.String()
}

// renderAnalyze renders a traced run of f the way EXPLAIN ANALYZE does, one
// indented line per row, its times masked.
func renderAnalyze(c *GridCell, f goldenForm, res *Result, tr *obs.Trace) string {
	lines := []string{f.headline}
	if !f.p.info.Empty {
		kvs := tr.KV.Snapshot()
		lines = append(append(lines, obs.RenderPlan(tr.Root, true)...), fmt.Sprintf(
			"totals: rows=%d wall=… kv_ops=%d (gets=%d scan_next=%d puts=%d deletes=%d) rtt=%s posting_reads=%d blocks=%d nodes=%d snapshot=%s",
			len(res.Rows), kvs.Ops(), kvs.Gets, kvs.ScanNexts, kvs.Puts, kvs.Deletes,
			time.Duration(kvs.WaitNanos), tr.PostingReads(), tr.Blocks(),
			c.Inst.store.Cluster.NodeCount(), RenderSnapshotSeqs(tr.SnapshotSeqs)))
	}
	var b strings.Builder
	for _, l := range lines {
		b.WriteString("  " + maskTimes(l) + "\n")
	}
	return b.String()
}

// runCell runs p bound to params at the cell's worker count under a trace,
// and returns its answer in delivery order, its ExecStats, the trace and
// what each storage node served.
func runCell(t *testing.T, c *GridCell, p *Prepared, params []Value) (*Result, *parallel.Metrics, *obs.Trace, []kv.Snapshot) {
	t.Helper()
	info, err := p.info.Bind(params)
	if err != nil {
		t.Fatalf("%s: %s: %v", c, p.src, err)
	}
	cl := c.Inst.store.Cluster
	nodes := make([]kv.Snapshot, cl.NodeCount())
	for i := range nodes {
		nodes[i] = cl.NodeMetrics(i)
	}
	tr := &obs.Trace{}
	view, release := c.Inst.pinView(info.Relations, tr)
	res, m, err := parallel.RunKBATraced(info, view, c.Workers, tr)
	release()
	if err != nil {
		t.Fatalf("%s: %s: %v", c, p.src, err)
	}
	for i := range nodes {
		nodes[i] = cl.NodeMetrics(i).Sub(nodes[i])
	}
	return res, m, tr, nodes
}

// checkAnswer returns an error unless res is the query's reference answer:
// the same rows, floats within the tolerance of ra.Result.Equal, since
// workers sum in another order than the evaluator; under a LIMIT without
// ORDER BY, that many rows of the unlimited answer.
func checkAnswer(q GridQuery, res *Result) error {
	if q.Limit == 0 {
		if !res.Equal(q.Ref) {
			return fmt.Errorf("%d rows differ from the reference evaluator's %d", len(res.Rows), len(q.Ref.Rows))
		}
		return nil
	}
	if want := min(q.Limit, len(q.Ref.Rows)); len(res.Rows) != want {
		return fmt.Errorf("%d rows under LIMIT %d of %d", len(res.Rows), q.Limit, len(q.Ref.Rows))
	}
	left := map[string]int{} // the reference's rows not yet answered
	for _, row := range q.Ref.Rows {
		left[renderRow(row)]++
	}
	for _, row := range res.Rows {
		r := renderRow(row)
		if left[r] == 0 {
			return fmt.Errorf("row %s is not in the reference answer", r)
		}
		left[r]--
	}
	return nil
}

// renderRow renders a row with each value's kind.
func renderRow(row Tuple) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(int(v.Kind)) + ":" + v.String())
	}
	return b.String()
}
