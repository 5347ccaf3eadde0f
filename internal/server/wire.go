package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"zidian/internal/relation"
)

// The codec for the two wire structs, used by both ends of the connection:
// the server decodes a Request line and appends a Response line, the client
// does the reverse, and the json.Marshaler/json.Unmarshaler methods run the
// same functions for everyone who holds the types (HTTP /query, tests, the
// benchmark's replica). Nothing here reflects. What it accepts and produces
// is encoding/json's behaviour on these structs — the differential fuzzers in
// wire_test.go hold it to that — with one documented difference: object keys
// match by exact case, where encoding/json folds case.

// ErrNonFinite reports a result cell no JSON number can carry. The statement
// that produced it is answered with this error instead of its rows.
var ErrNonFinite = errors.New("server: result holds a non-finite number")

// maxWireDepth is encoding/json's nesting bound; deeper input is rejected.
const maxWireDepth = 10000

// wireScanner is a cursor over one line. scratch holds the unescaped form of
// the last string that needed unescaping and is reused from string to string
// and line to line, so a slice str returns is valid only until the next call:
// callers copy what they keep.
type wireScanner struct {
	buf     []byte
	pos     int
	depth   int
	scratch []byte
}

// wireError is a syntax failure: where, and what would have been accepted.
// It never quotes the input, which may hold statement text.
type wireError struct {
	off  int
	want string
}

func (e *wireError) Error() string {
	return "offset " + strconv.Itoa(e.off) + ": expected " + e.want
}

func (d *wireScanner) want(what string) error { return &wireError{off: d.pos, want: what} }

// peek skips white space and returns the byte at the cursor, 0 at the end.
func (d *wireScanner) peek() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// end accepts only white space up to the end of the line.
func (d *wireScanner) end() error {
	if d.peek(); d.pos < len(d.buf) {
		return d.want("end of line")
	}
	return nil
}

func (d *wireScanner) literal(word string) error {
	if end := d.pos + len(word); end <= len(d.buf) && string(d.buf[d.pos:end]) == word {
		d.pos = end
		return nil
	}
	return d.want(word)
}

// null consumes a null at the cursor and reports whether there was one.
func (d *wireScanner) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// str scans the string at the cursor and returns its contents unescaped: a
// slice of the line when there was nothing to unescape, else of d.scratch.
func (d *wireScanner) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.want("a string")
	}
	start := d.pos + 1
	i := start
	for i < len(d.buf) {
		c := d.buf[i]
		if c == '"' {
			d.pos = i + 1
			return d.buf[start:i], nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	return d.unquote(start, i)
}

// unquote finishes str from the first byte that is not copied as it stands:
// escapes are resolved (a surrogate pair to one rune, a lone surrogate to
// U+FFFD) and invalid UTF-8 becomes U+FFFD, as encoding/json does.
func (d *wireScanner) unquote(start, i int) ([]byte, error) {
	out := append(d.scratch[:0], d.buf[start:i]...)
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case c == '"':
			d.pos, d.scratch = i+1, out
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.want("no control character inside a string")
		case c == '\\':
			if i++; i == len(d.buf) {
				continue // ends the loop: the string never closed
			}
			switch e := d.buf[i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i+1:])
				if r < 0 {
					d.pos = i + 1
					return nil, d.want("four hex digits after \\u")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+2 < len(d.buf) && d.buf[i+1] == '\\' && d.buf[i+2] == 'u' {
						r2 = hex4(d.buf[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.pos = i
				return nil, d.want("an escape character")
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(d.buf)
	return nil, d.want("a closing '\"'")
}

// hex4 reads four hex digits, -1 if b does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	r, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number scans the JSON number at the cursor and returns its literal and
// whether it has neither fraction nor exponent.
func (d *wireScanner) number() (lit []byte, integral bool, err error) {
	buf, start := d.buf, d.pos
	i := start
	digits := func() bool {
		from := i
		for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	if i < len(buf) && buf[i] == '0' {
		i++
	} else if !digits() {
		d.pos = i
		return nil, false, d.want("a digit")
	}
	integral = true
	if i < len(buf) && buf[i] == '.' {
		i++
		if integral = false; !digits() {
			d.pos = i
			return nil, false, d.want("a digit after '.'")
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if integral = false; !digits() {
			d.pos = i
			return nil, false, d.want("a digit in the exponent")
		}
	}
	d.pos = i
	return buf[start:i], integral, nil
}

func startsNumber(c byte) bool { return c == '-' || ('0' <= c && c <= '9') }

// integer scans a number that must be an int64.
func (d *wireScanner) integer() (int64, error) {
	start := d.pos
	if startsNumber(d.peek()) {
		start = d.pos
		lit, integral, err := d.number()
		if err != nil {
			return 0, err
		}
		if integral {
			if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
				return n, nil
			}
		}
	}
	d.pos = start
	return 0, d.want("an integer")
}

func (d *wireScanner) boolean() (bool, error) {
	switch d.peek() {
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	}
	return false, d.want("true or false")
}

// enter and leave bracket one container, holding nesting to maxWireDepth.
// enter reports whether the container has members.
func (d *wireScanner) enter(open, closing byte, what string) (members bool, err error) {
	if d.peek() != open {
		return false, d.want(what)
	}
	if d.depth++; d.depth > maxWireDepth {
		return false, d.want("at most " + strconv.Itoa(maxWireDepth) + " nested containers")
	}
	d.pos++
	if d.peek() == closing {
		d.leave()
		return false, nil
	}
	return true, nil
}

func (d *wireScanner) leave() {
	d.pos++
	d.depth--
}

// next is called after a member: it consumes the separator and reports
// whether another member follows, or consumes the closing bracket.
func (d *wireScanner) next(closing byte, what string) (more bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closing:
		d.leave()
		return false, nil
	}
	return false, d.want(what)
}

// object walks the object at the cursor: field is called once per member with
// the unescaped key (valid until the next scan) and the cursor before the
// member's value, which it must consume.
func (d *wireScanner) object(field func(key []byte) error) error {
	more, err := d.enter('{', '}', "'{'")
	for more && err == nil {
		var key []byte
		if d.peek() != '"' {
			return d.want("a key string")
		}
		if key, err = d.str(); err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.want("':'")
		}
		d.pos++
		if err = field(key); err == nil {
			more, err = d.next('}', "',' or '}'")
		}
	}
	return err
}

// array walks the array at the cursor, calling elem before each element.
func (d *wireScanner) array(elem func() error) error {
	more, err := d.enter('[', ']', "'['")
	for more && err == nil {
		if err = elem(); err == nil {
			more, err = d.next(']', "',' or ']'")
		}
	}
	return err
}

// skip consumes one well-formed value of any type.
func (d *wireScanner) skip() error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case startsNumber(c):
		_, _, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.want("a value")
}

// ---- requests ----

// param scans statement parameter i. Integral numbers that fit an int64 bind
// as ints (block keys are routinely ints, and a float-typed 42 would encode
// to a different storage key than the int 42), other numbers as floats,
// strings as strings. perr reports a well-formed value that is not a
// parameter — a boolean, null, array or object, or a number no float64 holds
// — which fails the statement, not the line.
func (d *wireScanner) param(i int) (v relation.Value, perr, err error) {
	c := d.peek()
	start := d.pos
	switch {
	case c == '"':
		s, err := d.str()
		return relation.String(string(s)), nil, err
	case startsNumber(c):
		lit, integral, err := d.number()
		if err != nil {
			return v, nil, err
		}
		if integral { // unless it overflows
			if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
				return relation.Int(n), nil, nil
			}
		}
		f, ferr := strconv.ParseFloat(string(lit), 64)
		if ferr != nil {
			return v, fmt.Errorf("server: parameter %d: %w", i, ferr), nil
		}
		return relation.Float(f), nil, nil
	}
	if err := d.skip(); err != nil {
		return v, nil, err
	}
	return v, fmt.Errorf("server: parameter %d must be a number or string, got %s", i, d.buf[start:d.pos]), nil
}

// request decodes the line into r in one pass. As with encoding/json a
// repeated key overwrites, a null leaves its field alone (params: empties
// it) and unknown keys are skipped. The parameters are bound as they are
// scanned (r.vals, r.valErr); keepRaw also copies each one's text into
// r.Params, which only UnmarshalJSON asks for.
func (d *wireScanner) request(r *Request, keepRaw bool) error {
	if isNull, err := d.null(); isNull {
		if err != nil {
			return err
		}
		return d.end()
	}
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			if isNull, err := d.null(); isNull {
				return err
			}
			n, err := d.integer()
			if err == nil {
				r.ID = n
			}
			return err
		case "op":
			return d.stringField(&r.Op)
		case "sql":
			return d.stringField(&r.SQL)
		case "name":
			return d.stringField(&r.Name)
		case "params":
			return d.params(r, keepRaw)
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	return d.end()
}

// stringField copies the string at the cursor out of the line into *p.
func (d *wireScanner) stringField(p *string) error {
	if isNull, err := d.null(); isNull {
		return err
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	switch string(s) { // the two hot ops cost no allocation
	case "query":
		*p = "query"
	case "exec":
		*p = "exec"
	default:
		*p = string(s)
	}
	return nil
}

func (d *wireScanner) params(r *Request, keepRaw bool) error {
	r.Params, r.vals, r.valErr = nil, nil, nil
	if isNull, err := d.null(); isNull {
		return err
	}
	// Statements rarely carry more than a row's worth of parameters: collect
	// on the stack and make the one copy that outlives the line.
	var few [16]relation.Value
	vals := few[:0]
	err := d.array(func() error {
		d.peek()
		start := d.pos
		v, perr, err := d.param(len(vals))
		if err != nil {
			return err
		}
		if perr != nil && r.valErr == nil {
			r.valErr = perr
		}
		vals = append(vals, v)
		if keepRaw {
			r.Params = append(r.Params, append(json.RawMessage(nil), d.buf[start:d.pos]...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if r.valErr == nil && len(vals) > 0 {
		r.vals = append([]relation.Value(nil), vals...)
	}
	return nil
}

// UnmarshalJSON decodes a request line with the wire decoder.
func (r *Request) UnmarshalJSON(data []byte) error {
	d := wireScanner{buf: data}
	return d.request(r, true)
}

// AppendJSON appends the request as encoding/json renders the struct, without
// the line's trailing newline. Params are appended as they stand.
func (r *Request) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if r.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendInt(dst, r.ID, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"op":`...)
	dst = appendString(dst, r.Op)
	if r.SQL != "" {
		dst = append(dst, `,"sql":`...)
		dst = appendString(dst, r.SQL)
	}
	if r.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, r.Name)
	}
	if len(r.Params) > 0 {
		dst = append(dst, `,"params":`...)
		for i, p := range r.Params {
			dst = append(dst, listSep(i))
			if p == nil {
				dst = append(dst, "null"...)
			}
			dst = append(dst, p...)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// MarshalJSON encodes the request with the wire encoder.
func (r *Request) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil), nil }

// DecodeParams converts raw JSON parameters into SQL values by the rule the
// request decoder applies to a params array (see wireScanner.param).
func DecodeParams(raw []json.RawMessage) ([]relation.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]relation.Value, len(raw))
	for i, p := range raw {
		d := wireScanner{buf: p}
		if d.peek() == 0 {
			return nil, fmt.Errorf("server: parameter %d is empty", i)
		}
		v, perr, err := d.param(i)
		if err == nil {
			err = d.end()
		}
		if err != nil {
			return nil, fmt.Errorf("server: parameter %d: %w", i, err)
		}
		if perr != nil {
			return nil, perr
		}
		out[i] = v
	}
	return out, nil
}

// EncodeParams converts Go values into wire parameters; the client uses it
// to build requests. Supported kinds: integers, floats, strings, and
// relation.Value.
func EncodeParams(params []any) ([]json.RawMessage, error) {
	if len(params) == 0 {
		return nil, nil
	}
	out := make([]json.RawMessage, len(params))
	for i, p := range params {
		if v, ok := p.(relation.Value); ok && v.IsNull() {
			p = nil
		}
		b, err := appendCell(nil, p)
		switch {
		case p == nil || errors.Is(err, errCellType):
			return nil, fmt.Errorf("server: unsupported parameter %d type %T", i, p)
		case err != nil:
			return nil, fmt.Errorf("server: parameter %d is not a finite number", i)
		}
		out[i] = b
	}
	return out, nil
}

// ---- responses ----

// wireSafe marks the ASCII bytes encoding/json copies into a string as they
// stand: everything printable but the quote, the backslash and <, >, &.
var wireSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted and escaped exactly as encoding/json's
// default encoder does (HTML-safe, U+2028/U+2029 escaped, invalid UTF-8 as
// the six characters \ufffd).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if wireSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in encoding/json's (ES6) form: shortest digits that
// round-trip at the given width, exponent form below 1e-6 and from 1e21.
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, ErrNonFinite
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' { // e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendValue appends one result cell.
func appendValue(dst []byte, v relation.Value) ([]byte, error) {
	switch v.Kind {
	case relation.KindInt:
		return strconv.AppendInt(dst, v.Int, 10), nil
	case relation.KindFloat:
		return appendFloat(dst, v.Flt, 64)
	case relation.KindString:
		return appendString(dst, v.Str), nil
	}
	return append(dst, "null"...), nil
}

// appendCell appends a Go value a caller placed in Response.Rows or passed as
// a statement parameter.
func appendCell(dst []byte, c any) ([]byte, error) {
	switch c := c.(type) {
	case nil:
		return append(dst, "null"...), nil
	case relation.Value:
		return appendValue(dst, c)
	case string:
		return appendString(dst, c), nil
	case float64:
		return appendFloat(dst, c, 64)
	case float32:
		return appendFloat(dst, float64(c), 32)
	case int64:
		return strconv.AppendInt(dst, c, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(c), 10), nil
	case int32:
		return strconv.AppendInt(dst, int64(c), 10), nil
	case int16:
		return strconv.AppendInt(dst, int64(c), 10), nil
	case int8:
		return strconv.AppendInt(dst, int64(c), 10), nil
	case uint64:
		return strconv.AppendUint(dst, c, 10), nil
	case uint:
		return strconv.AppendUint(dst, uint64(c), 10), nil
	case uint32:
		return strconv.AppendUint(dst, uint64(c), 10), nil
	case uint16:
		return strconv.AppendUint(dst, uint64(c), 10), nil
	case uint8:
		return strconv.AppendUint(dst, uint64(c), 10), nil
	}
	return dst, errCellType
}

// errCellType is appendCell's refusal of a Go type; callers name the value.
var errCellType = errors.New("server: unsupported value type")

// listSep is what precedes element i of a JSON array.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendJSON appends the response as encoding/json renders the struct — field
// order, omitempty, escaping and number forms, byte for byte — without the
// line's trailing newline. Rows come straight from the result tuples when the
// server filled them, else from Rows. It fails on a non-finite float, which
// JSON cannot carry; dst is then returned as it was.
func (r *Response) AppendJSON(dst []byte) ([]byte, error) {
	out := append(dst, '{')
	if r.ID != 0 {
		out = append(out, `"id":`...)
		out = strconv.AppendInt(out, r.ID, 10)
		out = append(out, ',')
	}
	out = append(out, `"ok":`...)
	out = appendBool(out, r.OK)
	if r.Error != "" {
		out = append(out, `,"error":`...)
		out = appendString(out, r.Error)
	}
	if r.Code != "" {
		out = append(out, `,"code":`...)
		out = appendString(out, r.Code)
	}
	if len(r.Cols) > 0 {
		out = append(out, `,"cols":`...)
		for i, c := range r.Cols {
			out = append(out, listSep(i))
			out = appendString(out, c)
		}
		out = append(out, ']')
	}
	var err error
	switch {
	case len(r.tuples) > 0:
		out = append(out, `,"rows":`...)
		for i, row := range r.tuples {
			out = append(out, listSep(i), '[')
			for j, v := range row {
				if j > 0 {
					out = append(out, ',')
				}
				if out, err = appendValue(out, v); err != nil {
					return dst, err
				}
			}
			out = append(out, ']')
		}
		out = append(out, ']')
	case len(r.Rows) > 0:
		out = append(out, `,"rows":`...)
		for i, row := range r.Rows {
			out = append(out, listSep(i))
			if row == nil {
				out = append(out, "null"...)
				continue
			}
			out = append(out, '[')
			for j, c := range row {
				if j > 0 {
					out = append(out, ',')
				}
				if out, err = appendCell(out, c); err != nil {
					if errors.Is(err, errCellType) {
						err = fmt.Errorf("server: unsupported cell type %T", c)
					}
					return dst, err
				}
			}
			out = append(out, ']')
		}
		out = append(out, ']')
	}
	if r.Affected != 0 {
		out = append(out, `,"affected":`...)
		out = strconv.AppendInt(out, int64(r.Affected), 10)
	}
	if st := r.Stats; st != nil {
		out = append(out, `,"stats":{"scanFree":`...)
		out = appendBool(out, st.ScanFree)
		out = append(out, `,"bounded":`...)
		out = appendBool(out, st.Bounded)
		out = append(out, `,"gets":`...)
		out = strconv.AppendInt(out, st.Gets, 10)
		out = append(out, `,"dataValues":`...)
		out = strconv.AppendInt(out, st.DataValues, 10)
		out = append(out, `,"wallMicros":`...)
		out = strconv.AppendInt(out, st.WallMicros, 10)
		out = append(out, `,"cacheHit":`...)
		out = appendBool(out, st.CacheHit)
		if st.Plan != "" {
			out = append(out, `,"plan":`...)
			out = appendString(out, st.Plan)
		}
		out = append(out, '}')
	}
	if r.Server != nil {
		// The stats op's payload is cold and wide: encoding/json renders it.
		b, err := json.Marshal(r.Server)
		if err != nil {
			return dst, err
		}
		out = append(out, `,"server":`...)
		out = append(out, b...)
	}
	return append(out, '}'), nil
}

// MarshalJSON encodes the response with the wire encoder.
func (r *Response) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON decodes a response line with the wire decoder, rows kept.
func (r *Response) UnmarshalJSON(data []byte) error { return DecodeResponse(data, r, false) }

// DecodeResponse decodes one response line into r. Row cells keep the dynamic
// types encoding/json gives a [][]any: float64 for every number, string, nil
// (the server sends no other cell). With lean set, cols and rows are
// checked for form and skipped, for callers that want the round trip and the
// statistics but not the data.
func DecodeResponse(line []byte, r *Response, lean bool) error {
	d := wireScanner{buf: line}
	err := d.object(func(key []byte) error {
		if isNull, err := d.null(); isNull {
			return err
		}
		var err error
		switch string(key) {
		case "id":
			r.ID, err = d.integer()
		case "ok":
			r.OK, err = d.boolean()
		case "error":
			err = d.stringField(&r.Error)
		case "code":
			err = d.stringField(&r.Code)
		case "cols":
			if lean {
				return d.skip()
			}
			r.Cols = r.Cols[:0]
			err = d.array(func() error {
				s, err := d.str()
				r.Cols = append(r.Cols, string(s))
				return err
			})
		case "rows":
			if lean {
				return d.skip()
			}
			r.Rows = r.Rows[:0]
			err = d.array(func() error {
				row, err := d.row(len(r.Cols))
				r.Rows = append(r.Rows, row)
				return err
			})
		case "affected":
			var n int64
			n, err = d.integer()
			r.Affected = int(n)
		case "stats":
			r.Stats = &QueryStats{}
			err = d.queryStats(r.Stats)
		case "server":
			d.peek()
			start := d.pos
			if err = d.skip(); err == nil {
				r.Server = &ServerStats{}
				err = json.Unmarshal(d.buf[start:d.pos], r.Server)
			}
		default:
			err = d.skip()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.end()
}

// row decodes one answer row; width sizes it.
func (d *wireScanner) row(width int) ([]any, error) {
	row := make([]any, 0, width)
	err := d.array(func() error {
		switch c := d.peek(); {
		case c == '"':
			s, err := d.str()
			row = append(row, string(s))
			return err
		case startsNumber(c):
			start := d.pos
			lit, _, err := d.number()
			if err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				d.pos = start
				return d.want("a number a float64 holds")
			}
			row = append(row, f)
			return nil
		case c == 'n':
			row = append(row, nil)
			return d.literal("null")
		}
		return d.want("a number, string or null")
	})
	return row, err
}

func (d *wireScanner) queryStats(st *QueryStats) error {
	return d.object(func(key []byte) error {
		if isNull, err := d.null(); isNull {
			return err
		}
		var err error
		switch string(key) {
		case "scanFree":
			st.ScanFree, err = d.boolean()
		case "bounded":
			st.Bounded, err = d.boolean()
		case "gets":
			st.Gets, err = d.integer()
		case "dataValues":
			st.DataValues, err = d.integer()
		case "wallMicros":
			st.WallMicros, err = d.integer()
		case "cacheHit":
			st.CacheHit, err = d.boolean()
		case "plan":
			err = d.stringField(&st.Plan)
		default:
			err = d.skip()
		}
		return err
	})
}
