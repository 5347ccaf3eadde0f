package zidian

import (
	"runtime"
	"testing"
	"time"

	"zidian/internal/workload"
)

// settled waits up to a second for the goroutine count to fall back to
// before, failing the test if it does not.
func settled(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutines running, %d before it", what, runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenLeavesNoGoroutines: Open runs its loaders, and CREATE INDEX its
// backfill, within the call, so neither leaves a goroutine behind; Open
// over a database that lacks a relation of the schema fails.
func TestOpenLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := workload.MOT(workload.Spec{Scale: 0.5, Seed: 1})
	before := runtime.NumGoroutine()
	in, err := Open(w.DB, w.Schema, Options{Engine: "hash", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	settled(t, "Open", before)
	if _, err := in.Exec("create index ix_obs_speed on OBSERVATION(speed)"); err != nil {
		t.Fatal(err)
	}
	settled(t, "CREATE INDEX", before)

	partial := NewDatabase()
	for _, name := range w.DB.Names() {
		if name != "OBSERVATION" {
			partial.Add(w.DB.Relation(name))
		}
	}
	if _, err := Open(partial, w.Schema, Options{Engine: "hash", Nodes: 4}); err == nil {
		t.Fatal("Open over a database without OBSERVATION succeeded")
	}
	settled(t, "the failed Open", before)
}
