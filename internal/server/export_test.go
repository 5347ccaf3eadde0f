package server

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// WriteResponses runs resps through one connection's response buffer, as
// serveConn does, and returns the capacity the buffer kept afterwards.
func (s *Server) WriteResponses(w io.Writer, resps ...*Response) (retained int, err error) {
	var buf []byte
	for _, r := range resps {
		if err = s.writeResponse(w, &buf, r); err != nil {
			break
		}
	}
	return cap(buf), err
}

// StmtKey is the plan-cache key and lifted values the server derives for a
// statement text sent with params.
var StmtKey = stmtKey

// MaxRetainedLine is the bound WriteResponses' result is held to.
const MaxRetainedLine = maxRetainedLine

// ScriptStep is one request/response pair of testdata/wire_script.jsonl;
// ByClient marks a request line the client package wrote at the parent.
type ScriptStep struct {
	ByClient  bool
	Req, Resp []byte
}

// WireScript reads the committed wire script. Lines end in "\n" only: one
// raw request carries a "\r".
func WireScript(t testing.TB) []ScriptStep {
	data, err := os.ReadFile("testdata/wire_script.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var steps []ScriptStep
	var req []byte
	byClient := false
	for _, l := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		switch {
		case bytes.HasPrefix(l, []byte("# client:")):
			byClient = true
		case bytes.HasPrefix(l, []byte("# raw:")):
			byClient = false
		case bytes.HasPrefix(l, []byte("#")):
		case req == nil:
			req = l
		default:
			steps = append(steps, ScriptStep{ByClient: byClient, Req: req, Resp: l})
			req = nil
		}
	}
	if req != nil || len(steps) < 100 {
		t.Fatalf("wire script: %d pairs, dangling request %q", len(steps), req)
	}
	return steps
}
