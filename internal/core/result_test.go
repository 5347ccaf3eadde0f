package core

import (
	"fmt"
	"strings"
	"testing"

	"zidian/internal/kba"
	"zidian/internal/ra"
	"zidian/internal/relation"
)

func renderRows(res *ra.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Cols, ","))
	if res.Rows == nil {
		b.WriteString(" <nil>")
	}
	for _, row := range res.Rows {
		b.WriteString(" " + row.String())
	}
	return b.String()
}

// TestToResultShapes holds the answer's shape to what it was when ToResult
// regrouped every answer through a keyed relation (the goldens were captured
// from that implementation): no rows answer nil, identical rows are
// delivered adjacently at the first one's position whatever partitions they
// arrived in, ORDER BY sorts after that and LIMIT — literal or bound — trims
// last. Each statement runs at one worker and at four.
func TestToResultShapes(t *testing.T) {
	db, store, c := fixture(t, 10)
	for _, tc := range []struct {
		name, sql string
		params    []relation.Value
		want      [2]string // at 1 and at 4 workers
	}{
		{name: "no rows", sql: "select S.suppkey from SUPPLIER S, NATION N where S.nationkey = N.nationkey and N.name = 'ATLANTIS'",
			want: [2]string{"S.suppkey <nil>", "S.suppkey <nil>"}},
		{name: "one row", sql: "select N.nationkey from NATION N where N.name = 'PERU'",
			want: [2]string{"N.nationkey (4)", "N.nationkey (4)"}},
		{name: "duplicates apart", sql: "select PS.availqty from PARTSUPP PS, SUPPLIER S, NATION N where PS.suppkey = S.suppkey and S.nationkey = N.nationkey and N.name = 'JAPAN'",
			want: [2]string{
				"PS.availqty (3) (3) (3) (3) (10) (10) (10) (10) (16) (16) (16) (16) (16) (16) (2) (2) (2) (2) (2) (7) (7) (7) (7) (6) (6) (9) (9) (9) (19) (19) (19) (19) (15) (15) (15) (15) (15) (15) (5) (5) (5) (8) (8) (8) (17) (17) (17) (1) (1) (1) (1) (4) (4) (11) (11) (11) (13) (13) (13) (18) (18) (18) (18) (12) (14) (14)",
				"PS.availqty (7) (7) (7) (7) (6) (6) (9) (9) (9) (11) (11) (11) (10) (10) (10) (10) (13) (13) (13) (16) (16) (16) (16) (16) (16) (15) (15) (15) (15) (15) (15) (18) (18) (18) (18) (17) (17) (17) (3) (3) (3) (3) (2) (2) (2) (2) (2) (12) (14) (14) (4) (4) (1) (1) (1) (1) (19) (19) (19) (19) (5) (5) (5) (8) (8) (8)",
			}},
		{name: "order by and limit", sql: "select S.nationkey, S.suppkey from SUPPLIER S order by S.nationkey desc, S.suppkey limit 5",
			want: [2]string{
				"S.nationkey,S.suppkey (5, 0) (5, 3) (5, 5) (5, 6) (5, 14)",
				"S.nationkey,S.suppkey (5, 0) (5, 3) (5, 5) (5, 6) (5, 14)",
			}},
		{name: "limit ?", sql: "select S.nationkey from SUPPLIER S order by S.nationkey limit ?", params: []relation.Value{relation.Int(3)},
			want: [2]string{"S.nationkey (1) (1) (1)", "S.nationkey (1) (1) (1)"}},
	} {
		info, err := c.Plan(ra.MustParse(tc.sql, db))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if info, err = info.Bind(tc.params); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, workers := range []int{1, 4} {
			out, _, err := kba.Run(info.Root, store, workers, nil)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res, err := info.ToResult(out)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := renderRows(res); got != tc.want[i] {
				t.Errorf("%s at %d workers:\n got %s\nwant %s", tc.name, workers, got, tc.want[i])
			}
		}
	}

	// The same order over an output ToResult did not see planned: rows that
	// differ only in a column the query does not select are not duplicates.
	info, err := c.Plan(ra.MustParse("select S.nationkey from SUPPLIER S", db))
	if err != nil {
		t.Fatal(err)
	}
	out := kba.NewPartRel([]string{"S.suppkey", "S.nationkey"}, 3)
	row := func(s, n int64) relation.Tuple { return relation.Tuple{relation.Int(s), relation.Int(n)} }
	out.Parts[0] = []relation.Tuple{row(1, 7), row(2, 8), row(1, 7)}
	out.Parts[1] = []relation.Tuple{row(3, 7), row(2, 8)}
	out.Parts[2] = []relation.Tuple{row(1, 7), row(4, 9)}
	res, err := info.ToResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(res), "S.nationkey (7) (7) (7) (8) (8) (7) (9)"; got != want {
		t.Errorf("hand-made output:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkToResult is the result-shaping step alone, over answers without a
// duplicate: the plan's output rows in, the query's rows out.
func BenchmarkToResult(b *testing.B) {
	db, store, c := fixture(b, 10)
	info, err := c.Plan(ra.MustParse("select PS.partkey, PS.suppkey, PS.supplycost from PARTSUPP PS", db))
	if err != nil {
		b.Fatal(err)
	}
	planned, _, err := kba.Run(info.Root, store, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 8, 512} {
		out := &kba.PartRel{Attrs: planned.Attrs, Parts: make([][]relation.Tuple, 2)}
		for i := 0; i < n; i++ {
			row := make(relation.Tuple, len(planned.Attrs))
			for j := range row {
				row[j] = relation.Int(int64(i*31 + j))
			}
			out.Parts[i%2] = append(out.Parts[i%2], row)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := info.ToResult(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
