package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"zidian"
	"zidian/internal/relation"
	"zidian/internal/server"
	"zidian/internal/server/client"
	"zidian/internal/workload"
)

// dataSeed fixes the generated MOT data: the dataset is part of the
// benchmark definition, the statement stream is what -seed varies.
const dataSeed = 1

// Env is one set-up system under test: generated data mapped onto a BaaV
// store, the workload's indexes, and a server with its default
// configuration (metrics on, mvcc regime, sweeper on, no emulated delay)
// listening on loopback.
type Env struct {
	DB        *relation.Database
	Inst      *zidian.Instance
	Srv       *server.Server
	Addr      string
	NVehicles int
	Workers   int
	// InitialRows is each relation's cardinality as loaded.
	InitialRows map[string]int
}

// parallelism is both the connection count C and the SQL-layer worker
// count: min(nproc, 4). Results compare only at equal C.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// setUp generates the data, opens the instance, creates the workload's
// indexes, starts the server and checks a connection answers. Its wall time
// is the setup_s metric.
func setUp(w *Workload, scale float64) (*Env, time.Duration, error) {
	start := time.Now()
	gen, err := workload.Generate("mot", workload.Spec{Scale: scale, Seed: dataSeed})
	if err != nil {
		return nil, 0, err
	}
	workers := parallelism()
	inst, err := zidian.Open(gen.DB, gen.Schema, zidian.Options{Engine: "hash", Nodes: 4, Workers: workers})
	if err != nil {
		return nil, 0, err
	}
	for _, ddl := range w.Indexes {
		if _, err := inst.Exec(ddl); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	env := &Env{
		DB:          gen.DB,
		Inst:        inst,
		NVehicles:   gen.DB.Relation("VEHICLE").Cardinality(),
		Workers:     workers,
		InitialRows: map[string]int{},
	}
	for _, rel := range gen.DB.Names() {
		env.InitialRows[rel] = gen.DB.Relation(rel).Cardinality()
	}
	env.Srv = server.New(inst, server.Config{})
	env.Addr, _, err = env.Srv.Start("127.0.0.1:0", "")
	if err != nil {
		return nil, 0, err
	}
	c, err := client.Dial(env.Addr)
	if err == nil {
		err = c.Ping()
		c.Close()
	}
	if err != nil {
		env.Stop()
		return nil, 0, err
	}
	return env, time.Since(start), nil
}

// Stop drains the server and waits for its goroutines (sessions, sweeper).
func (e *Env) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.Srv.Shutdown(ctx)
}
