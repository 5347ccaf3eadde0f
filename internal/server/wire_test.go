package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"zidian/internal/relation"
)

// encoding/json is the oracle for the wire codec. The shadow structs carry
// the wire structs' fields and tags and none of their methods, so json
// reflects over them as it did over Request and Response before the codec.

type shadowRequest struct {
	ID     int64             `json:"id,omitempty"`
	Op     string            `json:"op"`
	SQL    string            `json:"sql,omitempty"`
	Name   string            `json:"name,omitempty"`
	Params []json.RawMessage `json:"params,omitempty"`
}

type shadowResponse struct {
	ID       int64        `json:"id,omitempty"`
	OK       bool         `json:"ok"`
	Error    string       `json:"error,omitempty"`
	Code     string       `json:"code,omitempty"`
	Cols     []string     `json:"cols,omitempty"`
	Rows     [][]any      `json:"rows,omitempty"`
	Affected int          `json:"affected,omitempty"`
	Stats    *QueryStats  `json:"stats,omitempty"`
	Server   *ServerStats `json:"server,omitempty"`
}

// oracleDecodeParams is DecodeParams as it was when it ran on encoding/json.
func oracleDecodeParams(raw []json.RawMessage) ([]relation.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]relation.Value, len(raw))
	for i, r := range raw {
		s := strings.TrimSpace(string(r))
		if s == "" {
			return nil, fmt.Errorf("server: parameter %d is empty", i)
		}
		if s[0] == '"' {
			var v string
			if err := json.Unmarshal(r, &v); err != nil {
				return nil, fmt.Errorf("server: parameter %d: %w", i, err)
			}
			out[i] = relation.String(v)
			continue
		}
		var num json.Number
		if err := json.Unmarshal(r, &num); err != nil {
			return nil, fmt.Errorf("server: parameter %d must be a number or string, got %s", i, s)
		}
		if iv, err := num.Int64(); err == nil {
			out[i] = relation.Int(iv)
			continue
		}
		fv, err := num.Float64()
		if err != nil {
			return nil, fmt.Errorf("server: parameter %d: %w", i, err)
		}
		out[i] = relation.Float(fv)
	}
	return out, nil
}

// wireScript returns the request and response lines of the committed script.
func wireScript(t testing.TB) (reqs, resps [][]byte) {
	for _, st := range WireScript(t) {
		reqs, resps = append(reqs, st.Req), append(resps, st.Resp)
	}
	return reqs, resps
}

// foldedKey reports whether a top-level key of the (valid) object in line
// names a Request field in another case: encoding/json would match it, the
// wire decoder by design does not.
func foldedKey(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		key, ok := tok.(string)
		if err != nil || !ok {
			return false
		}
		for _, f := range []string{"id", "op", "sql", "name", "params"} {
			if key != f && strings.EqualFold(key, f) {
				return true
			}
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return false
}

func sameValues(a, b []relation.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Int != b[i].Int || a[i].Str != b[i].Str ||
			math.Float64bits(a[i].Flt) != math.Float64bits(b[i].Flt) {
			return false
		}
	}
	return true
}

// FuzzWireRequest: on every line the wire decoder and encoding/json (into the
// shadow struct, then the old DecodeParams) agree on accept/reject and on
// (id, op, sql, name, params with kinds); UnmarshalJSON — the same decoder
// keeping the raw params — agrees with both, and the request re-encodes to
// the bytes encoding/json gives (json.Marshal compacts and escapes the raw
// params of either struct alike).
func FuzzWireRequest(f *testing.F) {
	reqs, _ := wireScript(f)
	for _, l := range reqs {
		f.Add(l)
	}
	for _, s := range []string{
		`{"\u0069d":3,"o\u0070":"ping"}`,
		`{"ID":3,"Op":"ping","ſql":"x"}`,
		`{"op":"query","sql":"\ud83d\ude97 \ud83d \ude97\ud83d \udbff\udfff \u0000 \"","params":["\ud800\u0041",1E2,-0.0,1.5e+3,12345678901234567890]}`,
		`{"op":"query","params":[1e400,-1e400]}`,
		`{"op":"query","params":[ "a" , 2 ,{"k":[1,"]"]} ]}`,
		"{\"op\":\"que\x80ry\",\"sql\":\"\xe2\x80\xa8\xed\xa0\x80\"}",
		`{"op":"ping","x":` + strings.Repeat("[", maxWireDepth-1) + strings.Repeat("]", maxWireDepth-1) + `}`,
		`{"op":"ping","x":` + strings.Repeat("[", maxWireDepth) + strings.Repeat("]", maxWireDepth) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if json.Valid(line) && foldedKey(line) {
			return
		}
		var want shadowRequest
		jerr := json.Unmarshal(line, &want)
		var got Request
		d := wireScanner{buf: line}
		err := d.request(&got, false)
		if (jerr == nil) != (err == nil) {
			t.Fatalf("%q: encoding/json says %v, the wire decoder says %v", line, jerr, err)
		}
		var viaJSON Request
		if uerr := json.Unmarshal(line, &viaJSON); (uerr == nil) != (err == nil) {
			t.Fatalf("%q: UnmarshalJSON says %v, the wire decoder says %v", line, uerr, err)
		}
		if err != nil {
			return
		}
		if got.ID != want.ID || got.Op != want.Op || got.SQL != want.SQL || got.Name != want.Name {
			t.Fatalf("%q:\n got %+v\nwant %+v", line, got, want)
		}
		if viaJSON.ID != want.ID || viaJSON.Op != want.Op || viaJSON.SQL != want.SQL || viaJSON.Name != want.Name {
			t.Fatalf("%q: UnmarshalJSON\n got %+v\nwant %+v", line, viaJSON, want)
		}
		wantVals, perr := oracleDecodeParams(want.Params)
		rawVals, rerr := DecodeParams(viaJSON.Params)
		if (perr == nil) != (got.valErr == nil) || (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: params: oracle %v, wire %v, DecodeParams %v", line, perr, got.valErr, rerr)
		}
		if perr == nil && (!sameValues(got.vals, wantVals) || !sameValues(rawVals, wantVals)) {
			t.Fatalf("%q: params\nwire %v\n raw %v\nwant %v", line, got.vals, rawVals, wantVals)
		}
		wantLine, werr := json.Marshal(&want)
		gotLine, gerr := json.Marshal(&viaJSON)
		if werr != nil || gerr != nil || !bytes.Equal(gotLine, wantLine) {
			t.Fatalf("%q re-encodes to\n%s (%v)\nwant\n%s (%v)", line, gotLine, gerr, wantLine, werr)
		}
	})
}

// genResponse builds the three forms of one generated answer: as the server
// fills it (tuples), as a caller fills it (Rows) and as the oracle's struct.
// layout holds one byte per cell, rows of len(cols) cells (with no cols, one
// empty row per byte).
func genResponse(id int64, ok bool, msg, code, cols string, layout []byte, i int64, fl float64, s string, affected int, wall int64) (fromTuples, fromRows *Response, shadow *shadowResponse) {
	var names []string
	if cols != "" {
		names = strings.Split(cols, ",")
	}
	if len(layout) > 64 {
		layout = layout[:64]
	}
	var tuples []relation.Tuple
	var rows [][]any
	width := max(len(names), 1)
	for at := 0; at+width <= len(layout); at += width {
		tuple, row := relation.Tuple{}, []any{}
		for _, b := range layout[at : at+len(names)] {
			switch b % 5 {
			case 0:
				v := i ^ int64(b)<<(b%56)
				tuple, row = append(tuple, relation.Int(v)), append(row, v)
			case 1:
				tuple, row = append(tuple, relation.Float(fl)), append(row, fl)
			case 2:
				v := fl * math.Pow(10, float64(int(b)-128))
				tuple, row = append(tuple, relation.Float(v)), append(row, v)
			case 3:
				v := s[len(s)*int(b)/256:] + s[:len(s)*int(b)/256]
				tuple, row = append(tuple, relation.String(v)), append(row, v)
			default:
				tuple, row = append(tuple, relation.Null()), append(row, nil)
			}
		}
		tuples, rows = append(tuples, tuple), append(rows, row)
	}
	var stats *QueryStats
	if wall >= 0 {
		stats = &QueryStats{ScanFree: ok, Bounded: wall%2 == 0, Gets: i, DataValues: int64(len(layout)), WallMicros: wall, CacheHit: !ok}
		if wall%7 == 0 {
			stats.Plan = s
		}
	}
	fromTuples = &Response{ID: id, OK: ok, Error: msg, Code: code, Cols: names, Affected: affected, Stats: stats, tuples: tuples}
	fromRows = &Response{ID: id, OK: ok, Error: msg, Code: code, Cols: names, Affected: affected, Stats: stats, Rows: rows}
	shadow = &shadowResponse{ID: id, OK: ok, Error: msg, Code: code, Cols: names, Affected: affected, Stats: stats, Rows: rows}
	return fromTuples, fromRows, shadow
}

// FuzzWireResponse: for every generated answer the appended bytes equal
// json.NewEncoder's output byte for byte, whether the rows came as tuples or
// as [][]any; the line decodes back to the cells encoding/json decodes; and a
// lean decode returns the same QueryStats as a full one.
func FuzzWireResponse(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(int64(7), true, "", "", "a,b,c", []byte{0, 1, 3, 4, 2, 8, 5, 6, 13, 9, 130, 200}, int64(42), 59.97, "FORD", 0, int64(12))
	f.Add(int64(1), true, "", "", "x", []byte{1, 2, 127, 129, 250, 7}, int64(-1), negZero, "", 0, int64(0))
	f.Add(int64(2), true, "", "", "x,y", []byte{1, 1, 2, 133, 2, 118}, int64(0), 1e21, "", 0, int64(7))
	f.Add(int64(3), true, "", "", "x", []byte{1, 122, 2}, int64(0), 1e-7, "", 0, int64(-1))
	f.Add(int64(4), true, "", "", "s,t", []byte{3, 3, 131, 203}, int64(0), 0.5, "R&D <make> \"q\" \\ \u2028\u2029 caf\u00e9 \U0001F697 \xff\xfe \x00\x01\b\f\n\r\t\x7f", 0, int64(14))
	f.Add(int64(5), true, "", "", "", []byte{1, 2, 3}, int64(0), 0.0, "", 0, int64(3))
	f.Add(int64(0), false, "sql: unexpected ';' at 54", "statement", "", []byte{}, int64(0), 0.0, "", 0, int64(-1))
	f.Add(int64(6), true, "", "", "", []byte{}, int64(0), 0.0, "", 120, int64(-1))
	f.Add(int64(8), true, "", "", "f", []byte{1}, int64(0), math.Inf(1), "", 0, int64(1))
	f.Add(int64(9), true, "", "", "f,g", []byte{0, 1}, int64(0), math.NaN(), "", 0, int64(1))
	f.Add(int64(math.MinInt64), true, "", "", "n", []byte{0, 5, 55, 255}, int64(math.MaxInt64), 123456789.125, "", -3, int64(math.MaxInt64))
	_, resps := wireScript(f)
	for _, l := range resps {
		var r shadowResponse
		if json.Unmarshal(l, &r) != nil {
			f.Fatalf("script response %q does not decode", l)
		}
		var layout []byte
		var s string
		fl, wall := 0.5, int64(-1)
		for _, row := range r.Rows {
			for _, c := range row {
				switch c := c.(type) {
				case float64:
					fl, layout = c, append(layout, 1)
				case string:
					s, layout = c, append(layout, 3)
				default:
					layout = append(layout, 4)
				}
			}
		}
		if r.Stats != nil {
			wall = r.Stats.WallMicros
		}
		f.Add(r.ID, r.OK, r.Error, r.Code, strings.Join(r.Cols, ","), layout, int64(fl), fl, s, r.Affected, wall)
	}
	f.Fuzz(func(t *testing.T, id int64, ok bool, msg, code, cols string, layout []byte, i int64, fl float64, s string, affected int, wall int64) {
		fromTuples, fromRows, shadow := genResponse(id, ok, msg, code, cols, layout, i, fl, s, affected, wall)
		var want bytes.Buffer
		jerr := json.NewEncoder(&want).Encode(shadow)
		line, err := fromTuples.AppendJSON([]byte("kept"))
		line2, err2 := fromRows.AppendJSON(nil)
		if jerr != nil {
			if !errors.Is(err, ErrNonFinite) || !errors.Is(err2, ErrNonFinite) || string(line) != "kept" {
				t.Fatalf("encoding/json refuses (%v); the wire encoder says %v / %v and returns %q", jerr, err, err2, line)
			}
			return
		}
		if err != nil || err2 != nil {
			t.Fatalf("wire encoder fails (%v / %v) where encoding/json gives %s", err, err2, want.Bytes())
		}
		line = append(line[len("kept"):], '\n')
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("from tuples:\n%s\nencoding/json:\n%s", line, want.Bytes())
		}
		if line2 = append(line2, '\n'); !bytes.Equal(line2, want.Bytes()) {
			t.Fatalf("from rows:\n%s\nencoding/json:\n%s", line2, want.Bytes())
		}
		if viaJSON, err := json.Marshal(fromTuples); err != nil || !bytes.Equal(append(viaJSON, '\n'), want.Bytes()) {
			t.Fatalf("json.Marshal(&Response) = %s (%v)\nwant %s", viaJSON, err, want.Bytes())
		}

		var back shadowResponse
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		var full, lean Response
		if err := DecodeResponse(line, &full, false); err != nil {
			t.Fatalf("full decode of %s: %v", line, err)
		}
		if err := DecodeResponse(line, &lean, true); err != nil {
			t.Fatalf("lean decode of %s: %v", line, err)
		}
		got := shadowResponse{full.ID, full.OK, full.Error, full.Code, full.Cols, full.Rows, full.Affected, full.Stats, full.Server}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("%s decodes to\n%+v\nencoding/json:\n%+v", line, got, back)
		}
		if lean.Cols != nil || lean.Rows != nil {
			t.Fatalf("lean decode kept cols %v rows %v", lean.Cols, lean.Rows)
		}
		lean.Cols, lean.Rows = full.Cols, full.Rows
		if !reflect.DeepEqual(lean, full) {
			t.Fatalf("%s: lean decode\n%+v\nfull decode\n%+v", line, lean, full)
		}
	})
}

// TestWireScriptLines: every line of the committed script goes through the
// codec as it went through encoding/json — requests decode to the same
// fields, responses decode to the same cells and re-encode to the line.
func TestWireScriptLines(t *testing.T) {
	reqs, resps := wireScript(t)
	for _, l := range reqs {
		var want shadowRequest
		var got Request
		jerr, err := json.Unmarshal(l, &want), json.Unmarshal(l, &got)
		if (jerr == nil) != (err == nil) {
			t.Errorf("%q: encoding/json says %v, the codec %v", l, jerr, err)
		}
	}
	for _, l := range resps {
		var want shadowResponse
		var got Response
		if err := json.Unmarshal(l, &want); err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponse(l, &got, false); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		if !reflect.DeepEqual(shadowResponse{got.ID, got.OK, got.Error, got.Code, got.Cols, got.Rows, got.Affected, got.Stats, got.Server}, want) {
			t.Errorf("%q decodes to %+v, encoding/json to %+v", l, got, want)
		}
		if got.Server != nil {
			continue // the payload's floats re-encode, but that is encoding/json's business
		}
		if again, err := got.AppendJSON(nil); err != nil || !bytes.Equal(again, l) {
			t.Errorf("%q re-encodes to %q (%v)", l, again, err)
		}
	}
}

// TestWireProtocolErrors: a rejected line is told where and what was
// expected, never what it held.
func TestWireProtocolErrors(t *testing.T) {
	for line, want := range map[string]string{
		`{"op": "ping"`:                         `offset 13: expected ',' or '}'`,
		`{"op": "ping"} x`:                      `offset 15: expected end of line`,
		`[1]`:                                   `offset 0: expected '{'`,
		`{"id":"7"}`:                            `offset 6: expected an integer`,
		`{"id":1.5}`:                            `offset 6: expected an integer`,
		`{"id":9223372036854775808}`:            `offset 6: expected an integer`,
		`{"op":7}`:                              `offset 6: expected a string`,
		`{"params":7}`:                          `offset 10: expected '['`,
		`{"params":[7,]}`:                       `offset 13: expected a value`,
		`{"params":[7.]}`:                       `offset 13: expected a digit after '.'`,
		`{"params":[tru]}`:                      `offset 11: expected true`,
		`{"sql":"select secret \q"}`:            `offset 23: expected an escape character`,
		`{"sql":"select secret \u12"}`:          `offset 24: expected four hex digits after \u`,
		"{\"sql\":\"select secret \x01\"}":      `offset 22: expected no control character inside a string`,
		`{"sql":"select secret`:                 `offset 21: expected a closing '"'`,
		`{id:1}`:                                `offset 1: expected a key string`,
		`{"id" 1}`:                              `offset 6: expected ':'`,
		`{"x":` + strings.Repeat("[", 10000):    `offset 10004: expected at most 10000 nested containers`,
		`{"op":"ping","x":{"a":[1,2}}`:          `offset 26: expected ',' or ']'`,
		`   `:                                   `offset 3: expected '{'`,
		`{"op":"query","sql":"s","params":[-]}`: `offset 35: expected a digit`,
	} {
		var req Request
		d := wireScanner{buf: []byte(line)}
		if err := d.request(&req, false); err == nil || err.Error() != want {
			t.Errorf("%.40q: %v, want %s", line, err, want)
		}
	}
}
