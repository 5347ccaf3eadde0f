package zidian

import (
	"reflect"
	"testing"
)

// TestPreparedRelationsAndStatementInfo: the facade surfaces exactly what a
// serving layer needs to schedule a statement — the compiled plan's read set,
// and a statement's kind without executing it.
func TestPreparedRelationsAndStatementInfo(t *testing.T) {
	db, bv := atomicItemsDB(t)
	inst, err := Open(db, bv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := inst.Prepare("select I.qty from ITEM I where I.item_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Relations(); !reflect.DeepEqual(got, []string{"ITEM"}) {
		t.Fatalf("Prepared.Relations = %v, want [ITEM]", got)
	}

	r, err := inst.Exec("insert into ITEM values (500, 'SKU-500', 1)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Relations, []string{"ITEM"}) {
		t.Fatalf("insert ExecResult.Relations = %v", r.Relations)
	}
	r, err = inst.Exec("delete from ITEM where item_id = 500")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 1 || !reflect.DeepEqual(r.Relations, []string{"ITEM"}) {
		t.Fatalf("delete ExecResult = affected %d, relations %v", r.Affected, r.Relations)
	}
	r, err = inst.Exec("create index ix_qty on ITEM(qty)")
	if err != nil {
		t.Fatal(err)
	}
	if !r.SchemaChanged || !reflect.DeepEqual(r.Relations, []string{"ITEM"}) {
		t.Fatalf("create index ExecResult = %+v", r)
	}
	r, err = inst.Exec("drop index ix_qty")
	if err != nil {
		t.Fatal(err)
	}
	if !r.SchemaChanged || !reflect.DeepEqual(r.Relations, []string{"ITEM"}) {
		t.Fatalf("drop index ExecResult = %+v", r)
	}

	cases := []struct {
		sql  string
		kind StmtKind
	}{
		{"select I.qty from ITEM I where I.item_id = 1", StmtSelect},
		{"insert into ITEM values (1, 'a', 2)", StmtInsert},
		{"delete from ITEM where item_id = 1", StmtDelete},
		{"create index ix on ITEM(qty)", StmtDDL},
		{"drop index ix", StmtDDL},
		{"explain select I.qty from ITEM I where I.item_id = 1", StmtExplain},
	}
	for _, c := range cases {
		kind, err := StatementInfo(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if kind != c.kind {
			t.Fatalf("StatementInfo(%q) = %v, want %v", c.sql, kind, c.kind)
		}
	}
	if _, err := StatementInfo("frobnicate"); err == nil {
		t.Fatal("malformed statement classified without error")
	}
}
