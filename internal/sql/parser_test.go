package sql

import (
	"strings"
	"testing"

	"zidian/internal/relation"
)

func TestParsePaperQ1(t *testing.T) {
	// The paper's running example (Example 3, simplified TPC-H q11).
	q, err := Parse(`select PS.suppkey, SUM(PS.supplycost)
		from PARTSUPP as PS, SUPPLIER as S, NATION as N
		where PS.suppkey = S.suppkey and S.nationkey = N.nationkey
		  and N.name = 'GERMANY'
		group by PS.suppkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 3 {
		t.Fatalf("from = %v", q.From)
	}
	if q.From[0].Alias != "PS" || q.From[0].Name != "PARTSUPP" {
		t.Fatalf("alias binding: %+v", q.From[0])
	}
	if len(q.Where) != 3 {
		t.Fatalf("where = %v", q.Where)
	}
	if len(q.Items) != 2 || q.Items[1].Agg != AggSum {
		t.Fatalf("items = %v", q.Items)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != (Col{Table: "PS", Name: "suppkey"}) {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	// The third predicate is the constant selection.
	p := q.Where[2]
	if p.Lit == nil || p.Lit.Str != "GERMANY" || p.Op != OpEq {
		t.Fatalf("constant pred = %v", p)
	}
}

func TestParseImplicitAlias(t *testing.T) {
	q, err := Parse("select s.a from supplier s where s.a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Alias != "s" {
		t.Fatalf("alias = %q", q.From[0].Alias)
	}
}

func TestParseDefaultAlias(t *testing.T) {
	q, err := Parse("select supplier.a from supplier")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Alias != "supplier" {
		t.Fatalf("alias = %q", q.From[0].Alias)
	}
	if len(q.Where) != 0 || q.Limit != -1 {
		t.Fatal("defaults")
	}
}

func TestParseStarDistinctOrderLimit(t *testing.T) {
	q, err := Parse("select distinct * from r order by r.a desc, r.b limit 10")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || !q.Distinct {
		t.Fatal("star/distinct")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("order by = %v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	q, err := Parse("select r.a from r where r.a between 3 and 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	if q.Where[0].Op != OpGe || q.Where[1].Op != OpLe {
		t.Fatalf("between ops = %v %v", q.Where[0].Op, q.Where[1].Op)
	}
}

func TestParseIn(t *testing.T) {
	q, err := Parse("select r.a from r where r.b in (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 || len(q.Where[0].In) != 3 {
		t.Fatalf("in = %v", q.Where)
	}
	if !relation.Equal(q.Where[0].In[2], relation.Int(3)) {
		t.Fatalf("in values = %v", q.Where[0].In)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("select count(*), min(r.a), max(r.a), avg(r.b) as m from r")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 4 {
		t.Fatalf("items = %v", q.Items)
	}
	if !q.Items[0].Star || q.Items[0].Agg != AggCount {
		t.Fatal("count(*)")
	}
	if q.Items[3].Alias != "m" || q.Items[3].Agg != AggAvg {
		t.Fatalf("avg alias = %+v", q.Items[3])
	}
}

func TestParseLiteralsAndOps(t *testing.T) {
	q, err := Parse("select r.a from r where r.a >= 1.5 and r.b <> 'x''y' and r.c < r.d and r.e != 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 4 {
		t.Fatalf("where = %v", q.Where)
	}
	if q.Where[0].Lit.Kind != relation.KindFloat {
		t.Fatal("1.5 must parse as float")
	}
	if q.Where[1].Lit.Str != "x'y" {
		t.Fatalf("escaped string = %q", q.Where[1].Lit.Str)
	}
	if q.Where[2].Right == nil {
		t.Fatal("column comparison")
	}
	if q.Where[3].Op != OpNe {
		t.Fatal("!= must normalize to <>")
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse("select r.a from r where r.a = -5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Lit.Int != -5 {
		t.Fatalf("lit = %v", q.Where[0].Lit)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from r",
		"select r.a",
		"select r.a from r where",
		"select r.a from r where r.a",
		"select r.a from r where r.a = ",
		"select r.a from r limit -3",
		"select r.a from r limit x",
		"select sum(*) from r",
		"select r.a from r alias )",
		"select r.a from r where 1 = r.a",
		"select r.a from r where r.a between 1",
		"select r.a from r where r.b in 1",
		"select r.a from r where r.b in (1",
		"select r.a from r where r.a = 'unterminated",
		"select r.$ from r",
		"select r.a from r where r.a ! 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	src := "select distinct PS.suppkey, sum(PS.cost) as total from partsupp as PS, supplier S " +
		"where PS.suppkey = S.suppkey and S.nation = 'DE' and PS.qty in (1, 2) " +
		"group by PS.suppkey order by PS.suppkey desc limit 5"
	q := MustParse(src)
	rendered := q.String()
	for _, frag := range []string{"DISTINCT", "SUM(PS.cost) AS total", "GROUP BY", "ORDER BY", "DESC", "LIMIT 5", "IN (1, 2)"} {
		if !strings.Contains(rendered, frag) {
			t.Fatalf("rendered query missing %q: %s", frag, rendered)
		}
	}
	// Re-parsing the rendered form yields the same structure.
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse: %v (%s)", err, rendered)
	}
	if q2.String() != rendered {
		t.Fatalf("not stable:\n%s\n%s", rendered, q2.String())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("not sql")
}

func TestParseInsertStatement(t *testing.T) {
	stmt, err := ParseStatement("insert into SUPPLIER values (1, 'acme', 2.5), (2, 'x''y', -3)")
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := stmt.(*Insert)
	if !ok || ins.Table != "SUPPLIER" || len(ins.Rows) != 2 {
		t.Fatalf("stmt = %#v", stmt)
	}
	if ins.Rows[0][1].Str != "acme" || ins.Rows[1][1].Str != "x'y" || ins.Rows[1][2].Int != -3 {
		t.Fatalf("rows = %v", ins.Rows)
	}
	// String renders parseable SQL.
	if _, err := ParseStatement(ins.String()); err != nil {
		t.Fatalf("reparse %q: %v", ins.String(), err)
	}
}

func TestParseDeleteStatement(t *testing.T) {
	stmt, err := ParseStatement("delete from T where T.a = 1 and b between 2 and 4 and c in (5, 6)")
	if err != nil {
		t.Fatal(err)
	}
	del, ok := stmt.(*Delete)
	if !ok || del.Table != "T" || len(del.Where) != 4 {
		t.Fatalf("stmt = %#v", stmt)
	}
	if _, err := ParseStatement(del.String()); err != nil {
		t.Fatalf("reparse %q: %v", del.String(), err)
	}
	// DELETE without WHERE.
	stmt, err = ParseStatement("delete from T")
	if err != nil || len(stmt.(*Delete).Where) != 0 {
		t.Fatalf("bare delete: %v %v", stmt, err)
	}
}

func TestParseStatementSelectAndErrors(t *testing.T) {
	if stmt, err := ParseStatement("select r.a from r"); err != nil {
		t.Fatal(err)
	} else if _, ok := stmt.(*Query); !ok {
		t.Fatalf("stmt = %#v", stmt)
	}
	bad := []string{
		"",
		"update t set a = 1",
		"insert into t (1)",
		"insert into t values 1",
		"insert into t values (1",
		"insert into t values (1) trailing ,",
		"delete t",
		"delete from t where",
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

// TestIsReserved: every reserved word is recognized in any letter case,
// nothing else is — a word containing one, a longer word, a non-ASCII
// look-alike — and the probe allocates nothing (Normalize runs it on every
// upper-case word of every statement).
func TestIsReserved(t *testing.T) {
	for _, word := range []string{"select", "from", "where", "group", "order", "by", "limit",
		"and", "as", "distinct", "between", "in", "asc", "desc"} {
		for _, form := range []string{word, strings.ToUpper(word), strings.ToUpper(word[:1]) + word[1:]} {
			if !IsReserved(form) {
				t.Errorf("IsReserved(%q) = false", form)
			}
		}
		if IsReserved(word+"x") || IsReserved("x"+word) {
			t.Errorf("IsReserved accepts %q with a letter attached", word)
		}
	}
	for _, word := range []string{"", "vehicle_id", "selects", "distinctly", "İn", "ſelect", "BETWEENS"} {
		if IsReserved(word) {
			t.Errorf("IsReserved(%q) = true", word)
		}
	}
	if n := testing.AllocsPerRun(100, func() { IsReserved("BETWEEN"); IsReserved("vehicle_id") }); n != 0 {
		t.Errorf("IsReserved allocates %v times per call pair", n)
	}
}
