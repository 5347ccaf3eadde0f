package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"zidian/internal/server"
)

func TestTemplatesMix(t *testing.T) {
	point, setup, err := TemplatesMix("mot", "point")
	if err != nil || len(setup) != 0 || len(point) == 0 {
		t.Fatalf("point: %d templates, %d setup, %v", len(point), len(setup), err)
	}
	nonkey, setup, err := TemplatesMix("mot", "nonkey")
	if err != nil || len(nonkey) == 0 || len(setup) == 0 {
		t.Fatalf("nonkey: %d templates, %d setup, %v", len(nonkey), len(setup), err)
	}
	for _, s := range setup {
		if !strings.HasPrefix(s, "create index") {
			t.Fatalf("setup statement %q is not index DDL", s)
		}
	}
	ranged, setup, err := TemplatesMix("mot", "range")
	if err != nil || len(ranged) == 0 || len(setup) == 0 {
		t.Fatalf("range: %d templates, %d setup, %v", len(ranged), len(setup), err)
	}
	for _, tm := range ranged {
		if tm.Verbs != 2 || !strings.Contains(tm.Format, "between %d and %d") {
			t.Fatalf("range template %q is not a two-verb BETWEEN window", tm.Name)
		}
		if got := tm.ParamSQL(); strings.Count(got, "?") != 2 || strings.Contains(got, "%d") {
			t.Fatalf("range template %q ParamSQL = %q", tm.Name, got)
		}
	}
	mixed, _, err := TemplatesMix("mot", "mixed")
	if err != nil || len(mixed) != len(point)+len(nonkey)+len(ranged) {
		t.Fatalf("mixed: %d templates, want %d, %v", len(mixed), len(point)+len(nonkey)+len(ranged), err)
	}
	if _, _, err := TemplatesMix("mot", "bogus"); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, _, err := TemplatesMix("tpch", "nonkey"); err == nil {
		t.Fatal("tpch has no non-key suite; expected an error")
	}
}

// TestRunRangeMix drives the range mix end to end through the wire
// protocol: the setup DDL creates the indexes, every request carries a
// BETWEEN window, and parameterized bounds must reuse one cached template
// per shape.
func TestRunRangeMix(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.5, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	templates, setup, err := TemplatesMix("mot", "range")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Addr:          tcp,
		Clients:       4,
		Requests:      25,
		Templates:     templates,
		Setup:         setup,
		ParamPool:     10,
		Seed:          1,
		Parameterized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("range mix finished with %d errors", rep.Errors)
	}
	// One template per shape: after at most len(templates) misses per
	// client warmup, everything hits.
	if rep.CacheHitRate < 0.9 {
		t.Fatalf("parameterized range mix hit rate = %.2f, want >= 0.9", rep.CacheHitRate)
	}
	// The served plans must actually use the range access path.
	plan, err := inst.Explain("select V.vehicle_id, V.color, V.fuel from VEHICLE V where V.year between 2000 and 2002")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index-range") {
		t.Fatalf("range mix statement not served by IndexRange: %s", plan)
	}
}

// TestReadWriteMixShape checks the mixed suite's contract: reads are plain
// query templates, writes are exec templates whose verbs all derive from
// one unique base id (so concurrent clients never collide) with a paired
// single-verb delete, and the setup is index DDL.
func TestReadWriteMixShape(t *testing.T) {
	reads, writes, setup, err := ReadWriteMix("mot")
	if err != nil || len(reads) == 0 || len(writes) == 0 || len(setup) == 0 {
		t.Fatalf("ReadWriteMix: %d reads, %d writes, %d setup, %v", len(reads), len(writes), len(setup), err)
	}
	for _, r := range reads {
		if r.Write || r.Delete != "" {
			t.Fatalf("read template %q marked as a write", r.Name)
		}
	}
	for _, w := range writes {
		if !w.Write || !strings.HasPrefix(w.Format, "insert into ") {
			t.Fatalf("write template %q is not an INSERT", w.Name)
		}
		if !strings.HasPrefix(w.Delete, "delete from ") || strings.Count(w.Delete, "%d") != 1 {
			t.Fatalf("write template %q has no single-verb paired delete: %q", w.Name, w.Delete)
		}
		for _, a := range w.args(10) {
			if v := a.(int); v != 10 {
				t.Fatalf("write template %q derives verb %d, want the base id", w.Name, v)
			}
		}
	}
	if _, _, _, err := ReadWriteMix("tpch"); err == nil {
		t.Fatal("tpch has no readwrite suite; expected an error")
	}
}

// TestRunReadWriteMix drives the mixed read/write suite end to end through
// the wire protocol at a 50% write fraction and requires zero errors — the
// group-commit write path under real concurrent INSERT/DELETE traffic.
func TestRunReadWriteMix(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.3, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	reads, writes, setup, err := ReadWriteMix("mot")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Addr:           tcp,
		Clients:        4,
		Requests:       30,
		Templates:      reads,
		WriteTemplates: writes,
		WriteFraction:  0.5,
		Setup:          setup,
		ParamPool:      10,
		Seed:           1,
		Parameterized:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("readwrite mix finished with %d errors", rep.Errors)
	}
	if rep.Requests != 4*30 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if rep.Writes == 0 || rep.Writes == rep.Requests {
		t.Fatalf("writes = %d of %d requests; the mix did not mix", rep.Writes, rep.Requests)
	}
}

// TestRunNonKeyMix drives the nonkey mix end to end: the setup DDL creates
// the indexes through the wire protocol, and the run must finish with zero
// errors. Re-running against the same warm server must tolerate the
// already-existing indexes.
func TestRunNonKeyMix(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.5, 7, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst, server.Config{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	tcp, _, err := srv.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	templates, setup, err := TemplatesMix("mot", "nonkey")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Addr:      tcp,
		Clients:   4,
		Requests:  20,
		Templates: templates,
		Setup:     setup,
		ParamPool: 10,
		Seed:      1,
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("nonkey mix finished with %d errors", rep.Errors)
	}
	if rep.Requests != int64(opts.Clients*opts.Requests) {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if got := srv.Cache().Stats(); got.Epoch == 0 {
		t.Fatalf("setup DDL did not advance the cache epoch: %+v", got)
	}
	// Second run against the warm server: indexes already exist and the
	// setup must be tolerated.
	rep, err = Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("warm rerun finished with %d errors", rep.Errors)
	}
}
