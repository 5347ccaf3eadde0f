package server

import (
	"fmt"
	"io"
	"testing"

	"zidian/internal/relation"
)

// Per-layer benchmarks of the wire codec: what one statement pays to be read
// off and written onto a connection, at each end. The encoding/json figures
// they replaced are recorded in CHANGES.md (PR 20).

var benchRequests = []struct{ name, line string }{
	{"point", `{"id":12345,"op":"query","sql":"select V.make, V.model from VEHICLE V where V.vehicle_id = ?","params":[4711]}`},
	{"insert14", `{"id":12346,"op":"exec","sql":"insert into TEST values (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)","params":[9000001,4711,17,"2012-01-01","PASS",48213,"CLASS-4",54.85,45,0,2,1,311,"MI"]}`},
}

// benchAnswer is a SELECT answer of n rows × 3 columns as the server holds it.
func benchAnswer(n int) *Response {
	r := &Response{ID: 12345, OK: true, Cols: []string{"T.test_date", "T.result", "T.mileage"},
		Stats: &QueryStats{ScanFree: true, Bounded: true, Gets: 1, DataValues: int64(8 * n), WallMicros: 21, CacheHit: true}}
	for i := 0; i < n; i++ {
		r.tuples = append(r.tuples, relation.Tuple{
			relation.String(fmt.Sprintf("2009-%02d-%02d", 1+i%12, 1+i%28)), relation.String("PASS"), relation.Int(int64(30000 + 7*i))})
	}
	return r
}

var benchResponses = []struct {
	name string
	resp *Response
}{
	{"1x3", benchAnswer(1)},
	{"700x3", benchAnswer(700)},
	{"error", &Response{ID: 12345, Error: "ra: statement wants 1 parameters, got 0", Code: "statement"}},
}

func BenchmarkWireDecode(b *testing.B) {
	for _, bc := range benchRequests {
		b.Run(bc.name, func(b *testing.B) {
			line := []byte(bc.line)
			var dec wireScanner
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for b.Loop() {
				var req Request
				dec.buf, dec.pos, dec.depth = line, 0, 0
				if err := dec.request(&req, false); err != nil || req.valErr != nil {
					b.Fatal(err, req.valErr)
				}
			}
		})
	}
}

func BenchmarkWireEncode(b *testing.B) {
	for _, bc := range benchResponses {
		b.Run(bc.name, func(b *testing.B) {
			srv := &Server{}
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				if err := srv.writeResponse(io.Discard, &buf, bc.resp); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkClientDecode(b *testing.B) {
	for _, bc := range benchResponses[:2] {
		line, err := bc.resp.AppendJSON(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, lean := range []bool{true, false} {
			name := bc.name + "/full"
			if lean {
				name = bc.name + "/lean"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(line)))
				for b.Loop() {
					var resp Response
					if err := DecodeResponse(line, &resp, lean); err != nil || resp.Stats == nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
