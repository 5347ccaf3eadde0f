package taav

import (
	"testing"

	"zidian/internal/kv"
	"zidian/internal/relation"
)

func testDB() *relation.Database {
	db := relation.NewDatabase()
	nation := relation.NewRelation(relation.MustSchema("NATION",
		[]relation.Attr{{Name: "nationkey", Kind: relation.KindInt}, {Name: "name", Kind: relation.KindString}},
		[]string{"nationkey"}))
	nation.MustInsert(relation.Tuple{relation.Int(1), relation.String("GERMANY")})
	nation.MustInsert(relation.Tuple{relation.Int(2), relation.String("FRANCE")})
	db.Add(nation)

	supplier := relation.NewRelation(relation.MustSchema("SUPPLIER",
		[]relation.Attr{{Name: "suppkey", Kind: relation.KindInt}, {Name: "nationkey", Kind: relation.KindInt}},
		[]string{"suppkey"}))
	for i := int64(0); i < 10; i++ {
		supplier.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i%2 + 1)})
	}
	db.Add(supplier)
	return db
}

func TestMapAndPointAccess(t *testing.T) {
	db := testDB()
	cluster := kv.NewCluster(kv.EngineHash, 3)
	s, err := Map(db, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Len() != 12 {
		t.Fatalf("pairs = %d", cluster.Len())
	}
	tup, ok, err := s.Get("SUPPLIER", relation.Tuple{relation.Int(3)})
	if err != nil || !ok || tup[1].Int != 2 {
		t.Fatalf("get = %v %v %v", tup, ok, err)
	}
	if _, ok, _ := s.Get("SUPPLIER", relation.Tuple{relation.Int(99)}); ok {
		t.Fatal("missing key must miss")
	}
	if _, _, err := s.Get("NOPE", nil); err == nil {
		t.Fatal("unknown relation")
	}
}

func TestScanCountsOneGetPerTuple(t *testing.T) {
	db := testDB()
	cluster := kv.NewCluster(kv.EngineHash, 3)
	s, _ := Map(db, cluster)
	cluster.ResetMetrics()
	n := 0
	if err := s.Scan("SUPPLIER", func(relation.Tuple) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scanned %d", n)
	}
	if got := cluster.Metrics().ScanNexts; got != 10 {
		t.Fatalf("scan nexts = %d", got)
	}
	// Early stop.
	n = 0
	s.Scan("SUPPLIER", func(relation.Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanNodePartition(t *testing.T) {
	db := testDB()
	cluster := kv.NewCluster(kv.EngineHash, 4)
	s, _ := Map(db, cluster)
	total := 0
	for i := 0; i < cluster.NodeCount(); i++ {
		if err := s.ScanNode(i, "SUPPLIER", func(relation.Tuple) bool { total++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if total != 10 {
		t.Fatalf("per-node scans saw %d", total)
	}
}

func TestInsertDelete(t *testing.T) {
	db := testDB()
	cluster := kv.NewCluster(kv.EngineHash, 2)
	s, _ := Map(db, cluster)
	if err := s.Insert("SUPPLIER", relation.Tuple{relation.Int(50), relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("SUPPLIER", relation.Tuple{relation.Int(50)}); !ok {
		t.Fatal("inserted tuple missing")
	}
	ok, err := s.Delete("SUPPLIER", relation.Tuple{relation.Int(50)})
	if err != nil || !ok {
		t.Fatalf("delete = %v %v", ok, err)
	}
	if ok, _ := s.Delete("SUPPLIER", relation.Tuple{relation.Int(50)}); ok {
		t.Fatal("double delete")
	}
	if err := s.Insert("SUPPLIER", relation.Tuple{relation.Int(1)}); err == nil {
		t.Fatal("arity mismatch")
	}
	if err := s.Insert("NOPE", nil); err == nil {
		t.Fatal("unknown relation")
	}
}

func TestKeylessRelationUsesRowIDs(t *testing.T) {
	db := relation.NewDatabase()
	log := relation.NewRelation(relation.MustSchema("LOG",
		[]relation.Attr{{Name: "msg", Kind: relation.KindString}}, nil))
	log.MustInsert(relation.Tuple{relation.String("a")})
	log.MustInsert(relation.Tuple{relation.String("a")}) // duplicate tuples survive
	db.Add(log)
	s, err := Map(db, kv.NewCluster(kv.EngineHash, 2))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Scan("LOG", func(relation.Tuple) bool { n++; return true })
	if n != 2 {
		t.Fatalf("keyless relation kept %d tuples", n)
	}
	if _, err := s.Delete("LOG", relation.Tuple{relation.String("a")}); err == nil {
		t.Fatal("delete by key on keyless relation must error")
	}
}
