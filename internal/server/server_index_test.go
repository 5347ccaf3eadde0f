package server_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"zidian"
	"zidian/internal/server"
	"zidian/internal/server/client"
)

// startIndexServer serves a dedicated 400-vehicle instance stored only
// under a primary-key KV schema, so a make predicate has no keyed access
// path and the cost model decisively prefers the secondary index over the
// scan once one exists (400 blocks vs ~21 gets).
func startIndexServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(indexInstance(t), cfg)
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, tcp
}

// indexInstance opens startIndexServer's instance.
func indexInstance(t *testing.T) *zidian.Instance {
	t.Helper()
	db := zidian.NewDatabase()
	vehicle := zidian.NewRelation(zidian.MustRelSchema("VEHICLE",
		[]zidian.Attr{
			{Name: "vehicle_id", Kind: zidian.KindInt},
			{Name: "make", Kind: zidian.KindString},
			{Name: "model", Kind: zidian.KindString},
			{Name: "year", Kind: zidian.KindInt},
		},
		[]string{"vehicle_id"}))
	for i := 0; i < 400; i++ {
		vehicle.MustInsert(zidian.Tuple{
			zidian.Int(int64(i)),
			zidian.String(fmt.Sprintf("MAKE-%02d", i%20)),
			zidian.String(fmt.Sprintf("MODEL-%03d", i%37)),
			zidian.Int(int64(2000 + i%20)),
		})
	}
	db.Add(vehicle)
	schema, err := zidian.NewBaaVSchema(db, zidian.KVSchema{
		Name: "vehicle_full", Rel: "VEHICLE",
		Key: []string{"vehicle_id"}, Val: []string{"make", "model", "year"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := zidian.Open(db, schema, zidian.Options{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func sortedJSONRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestServerWireDML drives INSERT and DELETE through the wire protocol's
// exec op and checks the answers a reader sees, including index
// maintenance: the same non-key query must return the same rows before and
// after CREATE INDEX, across inserts and deletes.
func TestServerWireDML(t *testing.T) {
	_, tcp := startIndexServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "select V.vehicle_id, V.model from VEHICLE V where V.make = 'MAKE-07'"
	_, base, _, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 20 {
		t.Fatalf("baseline rows = %d", len(base))
	}

	resp, err := c.Exec("insert into VEHICLE values " +
		"(9001, 'MAKE-07', 'WIRE-1', 2024), (9002, 'MAKE-07', 'WIRE-2', 2025), (9003, 'MAKE-01', 'WIRE-3', 2025)")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 3 {
		t.Fatalf("insert affected = %d", resp.Affected)
	}
	_, afterIns, _, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterIns) != len(base)+2 {
		t.Fatalf("rows after insert = %d, want %d", len(afterIns), len(base)+2)
	}

	// CREATE INDEX through the wire; the same query must now be served by
	// the index with identical rows.
	if resp, err = c.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 403 {
		t.Fatalf("create index backfilled %d tuples", resp.Affected)
	}
	expResp, err := c.Exec("explain " + q)
	if err != nil {
		t.Fatal(err)
	}
	if len(expResp.Rows) != 1 || !strings.Contains(fmt.Sprint(expResp.Rows[0]), "∝ ix_make on") {
		t.Fatalf("explain over the wire = %v", expResp.Rows)
	}
	_, viaIndex, stats, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ScanFree {
		t.Fatalf("post-DDL query stats = %+v", stats)
	}
	if got, want := sortedJSONRows(viaIndex), sortedJSONRows(afterIns); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("index rows diverge:\n got %v\nwant %v", got, want)
	}

	// DELETE through the wire maintains postings too.
	if resp, err = c.Exec("delete from VEHICLE where vehicle_id = 9001"); err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 1 {
		t.Fatalf("delete affected = %d", resp.Affected)
	}
	_, afterDel, _, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(afterDel) != len(afterIns)-1 {
		t.Fatalf("rows after delete = %d, want %d", len(afterDel), len(afterIns)-1)
	}
	for _, r := range afterDel {
		if fmt.Sprint(r[0]) == "9001" {
			t.Fatalf("deleted vehicle still answered: %v", afterDel)
		}
	}
}

// TestServerDDLBumpsEpoch checks the plan-cache invalidation contract: DDL
// advances the cache epoch, previously cached plans stop hitting, and the
// recompiled plan uses the new access path.
func TestServerDDLBumpsEpoch(t *testing.T) {
	srv, tcp := startIndexServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "select V.vehicle_id from VEHICLE V where V.make = 'MAKE-11'"
	if _, _, stats, err := c.Query(q); err != nil || stats.CacheHit {
		t.Fatalf("first run: hit=%v err=%v", stats != nil && stats.CacheHit, err)
	}
	if _, _, stats, err := c.Query(q); err != nil || !stats.CacheHit {
		t.Fatalf("second run should hit the cache, err=%v", err)
	}
	st0 := srv.Cache().Stats()
	if st0.Epoch != 0 || st0.Invalidations != 0 {
		t.Fatalf("pre-DDL cache stats = %+v", st0)
	}

	if _, err := c.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	st1 := srv.Cache().Stats()
	if st1.Epoch != 1 || st1.Invalidations != 1 {
		t.Fatalf("post-DDL cache stats = %+v", st1)
	}
	// The cached scan plan is stale: this run must miss, recompile, and use
	// the index.
	_, _, stats, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("stale plan served from cache after DDL")
	}
	if !stats.ScanFree {
		t.Fatalf("recompiled plan not index-backed: %+v", stats)
	}
	if st := srv.Cache().Stats(); st.StaleDrops == 0 {
		t.Fatalf("no stale drops recorded: %+v", st)
	}
	if _, _, stats, err = c.Query(q); err != nil || !stats.CacheHit {
		t.Fatalf("recompiled plan should hit again, err=%v", err)
	}

	// DROP INDEX bumps the epoch again; the query falls back to the scan
	// plan rather than erroring on the missing index.
	if _, err := c.Exec("drop index ix_make"); err != nil {
		t.Fatal(err)
	}
	if st := srv.Cache().Stats(); st.Epoch != 2 {
		t.Fatalf("epoch after drop = %d", st.Epoch)
	}
	_, _, stats, err = c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit || stats.ScanFree {
		t.Fatalf("post-drop stats = %+v", stats)
	}
}

// TestServerPreparedRevalidation: session prepared statements compiled
// before a DDL are transparently recompiled on execute, so they neither
// fail on a dropped index nor miss a new one.
func TestServerPreparedRevalidation(t *testing.T) {
	_, tcp := startIndexServer(t, server.Config{})
	c, err := client.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "select V.vehicle_id from VEHICLE V where V.make = 'MAKE-05'"
	if err := c.Prepare("m5", q); err != nil {
		t.Fatal(err)
	}
	_, before, _, err := c.Execute("m5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	// Execute after CREATE: recompiled to the index plan, same rows.
	_, after, stats, err := c.Execute("m5")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ScanFree {
		t.Fatalf("prepared statement not recompiled after DDL: %+v", stats)
	}
	if got, want := sortedJSONRows(after), sortedJSONRows(before); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("prepared rows diverge after DDL:\n got %v\nwant %v", got, want)
	}
	// Execute after DROP: recompiled back to the scan plan, no error.
	if _, err := c.Exec("drop index ix_make"); err != nil {
		t.Fatal(err)
	}
	_, after2, stats, err := c.Execute("m5")
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScanFree {
		t.Fatalf("prepared statement still index-backed after DROP: %+v", stats)
	}
	if len(after2) != len(before) {
		t.Fatalf("rows after drop = %d, want %d", len(after2), len(before))
	}
}

// TestServerSeesInstanceDDL: DDL run on the instance itself, not sent
// through the server, stales the server's cached plans too. After a DROP
// INDEX the cached index plan recompiles instead of failing on the missing
// index, and after a CREATE INDEX the next run plans with the index.
func TestServerSeesInstanceDDL(t *testing.T) {
	inst := indexInstance(t)
	srv := server.New(inst, server.Config{})
	defer srv.Shutdown(context.Background())
	ddl := func(sql string) {
		t.Helper()
		if _, err := inst.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// run answers make mk, which vehicles i ≡ mk (mod 20) carry.
	run := func(mk int, wantIndex, wantHit bool) {
		t.Helper()
		res, stats, hit, err := srv.Query(context.Background(),
			fmt.Sprintf("select V.vehicle_id from VEHICLE V where V.make = 'MAKE-%02d'", mk))
		if err != nil {
			t.Fatalf("MAKE-%02d: %v", mk, err)
		}
		if got := strings.Contains(stats.Plan, "∝ ix_make"); got != wantIndex || hit != wantHit {
			t.Fatalf("MAKE-%02d: index plan %v (want %v), cache hit %v (want %v)\n%s", mk, got, wantIndex, hit, wantHit, stats.Plan)
		}
		var ids []int
		for _, r := range res.Rows {
			ids = append(ids, int(r[0].Int))
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != mk+20*i || len(ids) != 20 {
				t.Fatalf("MAKE-%02d: ids %v", mk, ids)
			}
		}
	}
	ddl("create index ix_make on VEHICLE(make)")
	run(3, true, false)
	run(4, true, true)
	ddl("drop index ix_make")
	run(5, false, false)
	run(6, false, true)
	ddl("create index ix_make on VEHICLE(make)")
	run(7, true, false)
	if st := srv.Cache().Stats(); st.Epoch != 3 || st.Invalidations != 3 || st.StaleDrops != 2 {
		t.Fatalf("cache stats = %+v, want epoch 3, 3 invalidations, 2 stale drops", st)
	}
}

// TestStalePlanNeverServed: a plan compiled before a DDL, the window in
// which DDL races a compilation, may land in the cache but is never served.
// Of the statements that find it, one drops it.
func TestStalePlanNeverServed(t *testing.T) {
	inst := indexInstance(t)
	srv := server.New(inst, server.Config{})
	defer srv.Shutdown(context.Background())
	const q = "select V.vehicle_id from VEHICLE V where V.make = ?"
	old, err := inst.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Exec("create index ix_make on VEHICLE(make)"); err != nil {
		t.Fatal(err)
	}
	srv.Cache().Put(server.NormalizeSQL(q), old)
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, stats, _, err := srv.Query(context.Background(), q, zidian.String("MAKE-01"))
			if err == nil && !strings.Contains(stats.Plan, "∝ ix_make") {
				err = fmt.Errorf("the plan compiled before the index was served:\n%s", stats.Plan)
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Cache().Stats(); st.StaleDrops != 1 || st.Size != 1 {
		t.Fatalf("cache stats = %+v, want 1 stale drop and 1 entry", st)
	}
}

// TestInstanceDDLStalesEveryCachedPlan: one schema change stales every
// cached plan. Each reads as a miss when next touched, is dropped and
// counted once, and its recompiled plan hits again.
func TestInstanceDDLStalesEveryCachedPlan(t *testing.T) {
	inst := indexInstance(t)
	srv := server.New(inst, server.Config{})
	defer srv.Shutdown(context.Background())
	// Range literals stay in the key: eight statements, eight entries.
	query := func(i int, wantHit bool) {
		t.Helper()
		_, _, hit, err := srv.Query(context.Background(),
			fmt.Sprintf("select V.vehicle_id from VEHICLE V where V.year > %d", 2000+i))
		if err != nil || hit != wantHit {
			t.Fatalf("year > %d: hit %v (want %v), err %v", 2000+i, hit, wantHit, err)
		}
	}
	for _, hit := range []bool{false, true} {
		for i := 0; i < 8; i++ {
			query(i, hit)
		}
	}
	if _, err := inst.Exec("create index ix_year on VEHICLE(year)"); err != nil {
		t.Fatal(err)
	}
	for _, hit := range []bool{false, true} {
		for i := 0; i < 8; i++ {
			query(i, hit)
		}
	}
	if st := srv.Cache().Stats(); st.Epoch != 1 || st.Invalidations != 1 || st.StaleDrops != 8 || st.Size != 8 {
		t.Fatalf("cache stats = %+v, want epoch 1, 1 invalidation, 8 stale drops, 8 entries", st)
	}
}

// TestServerDDLUnderConcurrentLoad hammers the server with reads while DDL
// and DML run on another connection; every answer must be internally
// consistent and no statement may fail. Run under -race this exercises the
// epoch handoff between Exec's invalidation and concurrent compilations.
func TestServerDDLUnderConcurrentLoad(t *testing.T) {
	_, tcp := startIndexServer(t, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})

	done := make(chan error, 5)
	for g := 0; g < 4; g++ {
		go func(g int) {
			c, err := client.Dial(tcp)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 40; i++ {
				q := fmt.Sprintf("select V.vehicle_id from VEHICLE V where V.make = 'MAKE-%02d' and V.year > %d", i%20, 2000+i%10)
				if _, _, _, err := c.Query(q); err != nil {
					done <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		c, err := client.Dial(tcp)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for i := 0; i < 6; i++ {
			if _, err := c.Exec("create index ix_make on VEHICLE(make)"); err != nil {
				done <- fmt.Errorf("ddl create: %w", err)
				return
			}
			if _, err := c.Exec(fmt.Sprintf("insert into VEHICLE values (%d, 'MAKE-03', 'CHURN', 2024)", 9500+i)); err != nil {
				done <- fmt.Errorf("ddl insert: %w", err)
				return
			}
			if _, err := c.Exec("drop index ix_make"); err != nil {
				done <- fmt.Errorf("ddl drop: %w", err)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
