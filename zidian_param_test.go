package zidian

import (
	"strings"
	"testing"

	sqlpkg "zidian/internal/sql"
)

// paramize rewrites a literal SQL query into its `?` template: every
// literal in the WHERE clause (constant equalities, filters, BETWEEN
// bounds, IN elements) becomes a placeholder, and the extracted literals
// are returned in slot order. The rewritten text comes from the AST's own
// String rendering, so the template exercises the lexer and parser again
// when compiled.
func paramize(t *testing.T, src string) (string, []Value) {
	t.Helper()
	ast, err := sqlpkg.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	var params []Value
	n := 0
	for i := range ast.Where {
		p := &ast.Where[i]
		switch {
		case len(p.In) > 0:
			for _, v := range p.In {
				p.InParams = append(p.InParams, sqlpkg.Param{Index: n})
				params = append(params, v)
				n++
			}
			p.In = nil
		case p.Lit != nil:
			p.Param = &sqlpkg.Param{Index: n}
			params = append(params, *p.Lit)
			p.Lit = nil
			n++
		}
	}
	ast.NumParams = n
	return ast.String(), params
}

// renderResult canonicalizes a result for byte comparison: sorted rows,
// one line per row.
func renderResult(res *Result) string {
	res.Sort()
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ",") + "\n")
	for _, row := range res.Rows {
		b.WriteString(renderRow(row) + "\n")
	}
	return b.String()
}

// TestPreparedTemplateReuse checks the core promise: one compiled template
// serves many distinct literals with correct, distinct answers.
func TestPreparedTemplateReuse(t *testing.T) {
	inst := facadeInstance(t)
	p, err := inst.Prepare(
		"select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	if !strings.Contains(p.Plan(), "?0") {
		t.Fatalf("template plan should show the slot: %s", p.Plan())
	}
	res, stats, err := p.Run(String("GERMANY"))
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("GERMANY: %v %v", res, err)
	}
	if !stats.ScanFree {
		t.Fatalf("stats = %+v", stats)
	}
	res, _, err = p.Run(String("FRANCE"))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("FRANCE: %v %v", res, err)
	}
	res, _, err = p.Run(String("ATLANTIS"))
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("ATLANTIS: %v %v", res, err)
	}
}

// TestBindErrors covers the bind-time failure modes: arity mismatch, type
// mismatch, NULL binding, and parameters in DDL.
func TestBindErrors(t *testing.T) {
	inst := facadeInstance(t)
	p, err := inst.Prepare("select N.nationkey from NATION N where N.name = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("arity 0: %v", err)
	}
	if _, _, err := p.Run(String("A"), String("B")); err == nil {
		t.Fatalf("arity 2: %v", err)
	}
	if _, _, err := p.Run(Int(7)); err == nil || !strings.Contains(err.Error(), "type mismatch") {
		t.Fatalf("type mismatch: %v", err)
	}
	if _, _, err := p.Run(Null()); err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Fatalf("null: %v", err)
	}
	// Numeric slots interconvert: an integral float binds to an int column.
	pInt, err := inst.Prepare("select S.suppkey from SUPPLIER S where S.nationkey = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pInt.Run(Float(1))
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("float-as-int: %v %v", res, err)
	}
	if _, _, err := pInt.Run(Float(1.5)); err == nil {
		t.Fatal("fractional float for int column must error")
	}
	// Parameters in DDL: a `?` inside the statement is a parse error, and
	// binding values to a DDL statement is rejected.
	if _, err := inst.Exec("create index ix on SUPPLIER(?)"); err == nil {
		t.Fatal("placeholder in DDL must fail to parse")
	}
	if _, err := inst.Exec("create index ix_nk on SUPPLIER(nationkey)", Int(1)); err == nil ||
		!strings.Contains(err.Error(), "parameters") {
		t.Fatalf("params with DDL: %v", err)
	}
	// Arity is also enforced through Exec.
	if _, err := inst.Exec("select N.nationkey from NATION N where N.name = ?"); err == nil {
		t.Fatal("Exec arity mismatch must error")
	}
}

// TestExecParamsDML drives INSERT and DELETE through Exec with bound
// parameters, including mixed literal/placeholder rows.
func TestExecParamsDML(t *testing.T) {
	inst := facadeInstance(t)
	r, err := inst.Exec("insert into SUPPLIER values (?, ?), (14, ?)", Int(13), Int(2), Int(1))
	if err != nil || r.Affected != 2 {
		t.Fatalf("insert: %+v %v", r, err)
	}
	res, _, err := inst.Query("select S.suppkey from SUPPLIER S where S.nationkey = ?", Int(1))
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("after insert: %v %v", res, err)
	}
	r, err = inst.Exec("delete from SUPPLIER where suppkey = ?", Int(14))
	if err != nil || r.Affected != 1 {
		t.Fatalf("delete: %+v %v", r, err)
	}
	r, err = inst.Exec("delete from SUPPLIER where suppkey in (?, ?)", Int(13), Int(99))
	if err != nil || r.Affected != 1 {
		t.Fatalf("delete in: %+v %v", r, err)
	}
	res, _, err = inst.Query("select S.suppkey from SUPPLIER S where S.nationkey = ?", Int(1))
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("after deletes: %v %v", res, err)
	}
	// Type mismatch surfaces on the write path too.
	if _, err := inst.Exec("delete from SUPPLIER where suppkey = ?", String("x")); err == nil {
		t.Fatal("type mismatch in DELETE must error")
	}
}

// TestParamBetweenAndFilters exercises placeholders in range predicates.
func TestParamBetweenAndFilters(t *testing.T) {
	inst := facadeInstance(t)
	res, _, err := inst.Query(
		"select S.suppkey from SUPPLIER S where S.nationkey = ? and S.suppkey between ? and ?",
		Int(1), Int(10), Int(10))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("between: %v %v", res, err)
	}
	res, _, err = inst.Query(
		"select S.suppkey from SUPPLIER S where S.nationkey = ? and S.suppkey > ?",
		Int(1), Int(10))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("filter: %v %v", res, err)
	}
	res, _, err = inst.Query(
		"select S.suppkey from SUPPLIER S where S.nationkey in (?, 2) and S.suppkey >= ?",
		Int(1), Int(10))
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("mixed in: %v %v", res, err)
	}
}
