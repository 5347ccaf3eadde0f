package server

import (
	"fmt"
	"sync"
	"time"
)

// Session is the per-connection state of one client: an identity, the named
// prepared statements the client has compiled, and bookkeeping timestamps.
// A TCP connection owns exactly one session for its lifetime; each HTTP
// request is sessionless. Session methods are safe for concurrent use,
// though the TCP loop serves one request at a time per connection.
type Session struct {
	ID     uint64
	Remote string

	mu      sync.Mutex
	stmts   map[string]preparedStmt
	started time.Time
}

// preparedStmt is a named statement: its text, and the plan-cache key of
// that text, normalized once at prepare so executions reuse it. The plan
// itself lives in the cache, where every execution looks it up.
type preparedStmt struct {
	key, sql string
}

// newSession builds an empty session.
func newSession(id uint64, remote string) *Session {
	return &Session{
		ID:      id,
		Remote:  remote,
		stmts:   make(map[string]preparedStmt),
		started: time.Now(),
	}
}

// maxPreparedPerSession bounds per-session statement state so a misbehaving
// client cannot grow server memory without bound.
const maxPreparedPerSession = 256

// SetPrepared names a statement within the session, replacing any previous
// statement of that name. key is the plan-cache key of its text sql.
func (s *Session) SetPrepared(name, key, sql string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stmts[name]; !ok && len(s.stmts) >= maxPreparedPerSession {
		return fmt.Errorf("server: session holds %d prepared statements already", maxPreparedPerSession)
	}
	s.stmts[name] = preparedStmt{key: key, sql: sql}
	return nil
}

// Prepared looks up a named statement's plan-cache key and text.
func (s *Session) Prepared(name string) (key, sql string, ok bool) {
	s.mu.Lock()
	st, ok := s.stmts[name]
	s.mu.Unlock()
	return st.key, st.sql, ok
}

// ClosePrepared drops a named statement, reporting whether it existed.
func (s *Session) ClosePrepared(name string) bool {
	s.mu.Lock()
	_, ok := s.stmts[name]
	delete(s.stmts, name)
	s.mu.Unlock()
	return ok
}
