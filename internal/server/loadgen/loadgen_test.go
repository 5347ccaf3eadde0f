package loadgen

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zidian/internal/server"
)

func TestRunAgainstLiveServer(t *testing.T) {
	inst, _, err := server.OpenWorkload("mot", 0.2, 7, 2, 2)
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

	templates, err := Templates("mot")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Addr:      tcp,
		Clients:   8,
		Requests:  25,
		Templates: templates,
		ParamPool: 10,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 8*25 {
		t.Fatalf("requests = %d, want %d", rep.Requests, 8*25)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.QPS <= 0 || rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.ScanFreeRate != 1 {
		t.Fatalf("scan-free rate = %g, want 1 (all templates are point lookups)", rep.ScanFreeRate)
	}
	// 5 templates × 10 params = at most 50 distinct statements over 200
	// requests: the cache must serve the bulk of them.
	if rep.CacheHitRate < 0.7 {
		t.Fatalf("cache hit rate = %g", rep.CacheHitRate)
	}
	if rep.Server == nil || rep.Server.Queries != rep.Requests {
		t.Fatalf("server stats: %+v", rep.Server)
	}
	if got := percentiles(nil); got != (Latency{}) {
		t.Fatalf("percentiles(nil) = %+v", got)
	}

	if _, err := Templates("nope"); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

// TestPingFailureIsAnError: a peer that accepts and hangs up makes Dial
// succeed and Ping fail. Run and Replay must report that, not dereference
// the slot the failed client never reached.
func TestPingFailureIsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	addr := ln.Addr().String()

	templates, err := Templates("mot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Addr: addr, Clients: 2, Requests: 1, Templates: templates}); err == nil {
		t.Fatal("Run against a peer that hangs up: want an error")
	}

	capture := filepath.Join(t.TempDir(), "capture.jsonl")
	line := `{"dtMicros":0,"session":1,"verb":"select","template":"select V.make from VEHICLE V where V.vehicle_id = ?","binds":["int"]}` + "\n"
	if err := os.WriteFile(capture, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ReplayOptions{Addr: addr, Path: capture}); err == nil {
		t.Fatal("Replay against a peer that hangs up: want an error")
	}
}
