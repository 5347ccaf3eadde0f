// Package fixture exercises the tracethread rule: untraced storage calls
// on a path that has an *obs.Trace or *obs.KV in scope must be flagged,
// calls without a trace in scope must not.
package fixture

import (
	"zidian/internal/baav"
	"zidian/internal/kv"
	"zidian/internal/obs"
	"zidian/internal/relation"
)

func keep(k, v []byte) bool { return true }

// tracedParam reaches its trace through a parameter.
func tracedParam(c *kv.Cluster, t *obs.KV) {
	c.Scan([]byte("p"), keep)                           // want `untraced Cluster\.Scan on a traced path — use ScanT`
	c.ScanT(nil, []byte("p"), keep)                     // want `Cluster\.ScanT called with a nil trace`
	c.ScanT(t, []byte("p"), keep)                       // ok: trace threaded
	c.Get([]byte("k"))                                  // want `untraced Cluster\.Get on a traced path — use GetRoutedT`
	c.GetRoutedT(t, []byte("k"), []byte("k"))           // ok: trace threaded
	c.ScanNode(0, []byte("p"), keep)                    // want `untraced Cluster\.ScanNode on a traced path — use ScanNodeT`
	c.ScanNodeT(t, 0, []byte("p"), keep)                // ok: trace threaded
	c.ScanRange([]byte("p"), nil, nil, keep)            // want `untraced Cluster\.ScanRange on a traced path — use ScanRangeNodeT`
	c.ScanRangeNodeT(t, 0, []byte("p"), nil, nil, keep) // ok: trace threaded
}

type env struct {
	store *baav.Store
	kvt   *obs.KV
}

// fieldTrace reaches its trace through a field read in the body.
func (e *env) fieldTrace(name string) {
	e.store.GetBlock(name, nil)                         // want `untraced Store\.GetBlock on a traced path — use GetBlocksT`
	e.store.GetBlocksT(nil, name, nil)                  // want `Store\.GetBlocksT called with a nil trace`
	e.store.GetBlocksT(e.kvt, name, nil)                // ok: trace threaded
	e.store.FetchBlocksT(nil, name, nil, nil, nil)      // want `Store\.FetchBlocksT called with a nil trace`
	e.store.FetchBlocksT(e.kvt, name, nil, nil, nil)    // ok: trace threaded
	e.store.ScanInstance(name, nil)                     // want `untraced Store\.ScanInstance on a traced path — use ScanInstanceNodeT`
	e.store.ScanInstanceNodeT(e.kvt, 0, name, nil, nil) // ok: trace threaded
}

// postings covers the index reads' one-value and unbounded forms. A
// lookup's traced form is the ∝ read over the index.
func postings(x baav.Indexes, st *baav.Store, t *obs.Trace, v relation.Value) {
	x.Lookup("ix", v)                                                      // want `untraced Indexes\.Lookup on a traced path — use Store\.FetchBlocksT`
	x.Range("ix", nil, nil, true, true)                                    // want `untraced Indexes\.Range on a traced path — use RangeLimitT`
	x.RangeLimitT(nil, "ix", nil, nil, true, true, 1)                      // want `Indexes\.RangeLimitT called with a nil trace`
	st.FetchBlocksT(t.KVCounters(), "ix", []relation.Tuple{{v}}, nil, nil) // ok: trace threaded
}

// untraced has no trace anywhere: plain variants are the right call.
func untraced(c *kv.Cluster) {
	c.Scan([]byte("p"), keep) // ok: no trace in scope
}

// waived demonstrates the suppression directive.
func waived(c *kv.Cluster, t *obs.KV) {
	//lint:ignore zidian/tracethread fixture: cold path, deliberately untraced
	c.Scan([]byte("p"), keep)
	_ = t
}
