// Package kv implements the key-value storage substrate of the
// SQL-over-NoSQL architecture: single-node storage engines with get/put/scan
// semantics, a hash-sharded cluster (the DHT of the paper's storage layer),
// per-node operation metrics, and cost profiles that model the three KV
// systems used in the paper's evaluation (HBase, Kudu, Cassandra).
package kv

import (
	"sync/atomic"
	"time"
)

// Metrics counts storage operations. All counters are safe for concurrent
// update; experiments snapshot them before and after a run and subtract.
type Metrics struct {
	gets      atomic.Int64
	puts      atomic.Int64
	deletes   atomic.Int64
	scanNexts atomic.Int64
	bytesRead atomic.Int64
	bytesWrit atomic.Int64
	writeHold atomic.Int64 // nanoseconds
}

// Snapshot is an immutable copy of a Metrics at a point in time.
type Snapshot struct {
	Gets, Puts, Deletes, ScanNexts int64
	BytesRead, BytesWritten        int64
	// WriteHold is the time write batches held the node's lock exclusively:
	// what readers of the node could not run during.
	WriteHold time.Duration
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Gets:         m.gets.Load(),
		Puts:         m.puts.Load(),
		Deletes:      m.deletes.Load(),
		ScanNexts:    m.scanNexts.Load(),
		BytesRead:    m.bytesRead.Load(),
		BytesWritten: m.bytesWrit.Load(),
		WriteHold:    time.Duration(m.writeHold.Load()),
	}
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.gets.Store(0)
	m.puts.Store(0)
	m.deletes.Store(0)
	m.scanNexts.Store(0)
	m.bytesRead.Store(0)
	m.bytesWrit.Store(0)
	m.writeHold.Store(0)
}

func (m *Metrics) countGet(bytes int) {
	m.gets.Add(1)
	m.bytesRead.Add(int64(bytes))
}

func (m *Metrics) countPut(bytes int) {
	m.puts.Add(1)
	m.bytesWrit.Add(int64(bytes))
}

func (m *Metrics) countDelete() { m.deletes.Add(1) }

func (m *Metrics) countScanNext(bytes int) {
	m.scanNexts.Add(1)
	m.bytesRead.Add(int64(bytes))
}

// Sub returns s - o componentwise; use to isolate the cost of one run.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Gets:         s.Gets - o.Gets,
		Puts:         s.Puts - o.Puts,
		Deletes:      s.Deletes - o.Deletes,
		ScanNexts:    s.ScanNexts - o.ScanNexts,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
		WriteHold:    s.WriteHold - o.WriteHold,
	}
}

// Add returns s + o componentwise.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Gets:         s.Gets + o.Gets,
		Puts:         s.Puts + o.Puts,
		Deletes:      s.Deletes + o.Deletes,
		ScanNexts:    s.ScanNexts + o.ScanNexts,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
		WriteHold:    s.WriteHold + o.WriteHold,
	}
}
