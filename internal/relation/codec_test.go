package relation

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []Value{
		Null(),
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(1.5), Float(-1.5), Float(math.MaxFloat64), Float(-math.MaxFloat64),
		Float(math.SmallestNonzeroFloat64),
		String(""), String("a"), String("hello world"),
		String("with\x00null"), String("\x00"), String("\x00\x00"), String("end\x00"),
	}
	for _, v := range cases {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %v consumed %d of %d bytes", v, n, len(enc))
		}
		if !Equal(got, v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestIntOrderPreserved(t *testing.T) {
	vals := []int64{math.MinInt64, -1000, -1, 0, 1, 7, 1000, math.MaxInt64}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a := AppendValue(nil, Int(vals[i]))
			b := AppendValue(nil, Int(vals[j]))
			want := 0
			if vals[i] < vals[j] {
				want = -1
			} else if vals[i] > vals[j] {
				want = 1
			}
			if got := bytes.Compare(a, b); got != want {
				t.Fatalf("order of %d vs %d: got %d want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestFloatOrderPreserved(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -2.5, -1, 0, 1, 2.5, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a := AppendValue(nil, Float(vals[i]))
			b := AppendValue(nil, Float(vals[j]))
			want := 0
			if vals[i] < vals[j] {
				want = -1
			} else if vals[i] > vals[j] {
				want = 1
			}
			if got := bytes.Compare(a, b); got != want {
				t.Fatalf("order of %g vs %g: got %d want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestStringOrderPreserved(t *testing.T) {
	vals := []string{"", "a", "ab", "a\x00", "a\x00b", "b", "ba"}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a := AppendValue(nil, String(vals[i]))
			b := AppendValue(nil, String(vals[j]))
			want := 0
			if vals[i] < vals[j] {
				want = -1
			} else if vals[i] > vals[j] {
				want = 1
			}
			if got := bytes.Compare(a, b); got != want {
				t.Fatalf("order of %q vs %q: got %d want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

// randomValue generates values in a shape testing/quick can drive.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64() * 1e6)
	default:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return String(string(b))
	}
}

type tuplePair struct{ A, B Tuple }

// Generate implements quick.Generator for random tuple pairs that share a
// kind signature per position (typed columns, like real schemas).
func (tuplePair) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(4)
	a := make(Tuple, n)
	b := make(Tuple, n)
	for i := 0; i < n; i++ {
		a[i] = randomValue(r)
		// Same-kind value in b half the time to exercise equal prefixes.
		if r.Intn(2) == 0 {
			b[i] = a[i]
		} else {
			for {
				v := randomValue(r)
				if v.Kind == a[i].Kind {
					b[i] = v
					break
				}
			}
		}
	}
	return reflect.ValueOf(tuplePair{a, b})
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(p tuplePair) bool {
		enc := EncodeTuple(p.A)
		dec, n, err := DecodeTuple(enc, len(p.A))
		if err != nil || n != len(enc) || EncodedLen(p.A) != len(enc) {
			return false
		}
		return dec.Equal(p.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodingOrderMatchesTupleOrder(t *testing.T) {
	f := func(p tuplePair) bool {
		ea, eb := EncodeTuple(p.A), EncodeTuple(p.B)
		want := p.A.Compare(p.B)
		got := bytes.Compare(ea, eb)
		// Mixed int/float columns may disagree with numeric compare;
		// typed columns (as generated) never mix, so order must match.
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	bad := [][]byte{
		{},
		{0x99},
		{tagInt, 1, 2},
		{tagFloat, 1},
		{tagString, 'a'},        // unterminated
		{tagString, 0x00},       // escape cut short
		{tagString, 0x00, 0x77}, // invalid escape
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Fatalf("decode %v: expected error", b)
		}
	}
}

func TestDecodeAll(t *testing.T) {
	tup := Tuple{Int(1), String("x"), Float(2.5), Null()}
	got, err := DecodeAll(EncodeTuple(tup))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tup) {
		t.Fatalf("got %v want %v", got, tup)
	}
}

func TestKeyString(t *testing.T) {
	a := Tuple{Int(1), String("x")}
	b := Tuple{Int(1), String("x")}
	c := Tuple{Int(2), String("x")}
	if KeyString(a) != KeyString(b) {
		t.Fatal("equal tuples must share key string")
	}
	if KeyString(a) == KeyString(c) {
		t.Fatal("different tuples must not collide")
	}
}

// TestSkipMatchesDecode checks SkipValue/SkipTuple report exactly the byte
// counts their decoding counterparts consume, including escaped strings.
func TestSkipMatchesDecode(t *testing.T) {
	tuples := []Tuple{
		{Int(0), Int(-1), Int(1 << 40)},
		{String(""), String("plain"), String("nul\x00byte\x00")},
		{Float(-2.5), Float(0), Null()},
		{Int(7), String("mixed\x00"), Float(3.14), Null()},
	}
	for _, tup := range tuples {
		enc := EncodeTuple(tup)
		// Tack on trailing bytes so skip lengths can't rely on exhaustion.
		enc = append(enc, 0xAB, 0xCD)
		_, wantN, err := DecodeTuple(enc, len(tup))
		if err != nil {
			t.Fatalf("DecodeTuple(%v): %v", tup, err)
		}
		gotN, err := SkipTuple(enc, len(tup))
		if err != nil {
			t.Fatalf("SkipTuple(%v): %v", tup, err)
		}
		if gotN != wantN {
			t.Fatalf("SkipTuple(%v) = %d bytes, DecodeTuple consumed %d", tup, gotN, wantN)
		}
	}
	if _, err := SkipValue(nil); err == nil {
		t.Fatal("SkipValue(nil) did not fail")
	}
	if _, err := SkipValue([]byte{0x02, 0x00}); err == nil {
		t.Fatal("SkipValue(truncated int) did not fail")
	}
	if _, err := SkipValue([]byte{0x04, 'a'}); err == nil {
		t.Fatal("SkipValue(unterminated string) did not fail")
	}
}

// TestQuickDecodeColumns: whatever columns are taken, DecodeCompactColumns
// returns the projection of the whole row, consumes the whole row's bytes
// and reports the whole row's accounting size — strings with zero bytes and
// empty column lists included.
func TestQuickDecodeColumns(t *testing.T) {
	f := func(p tuplePair, mask uint8) bool {
		enc := append(AppendCompactTuple(nil, p.A), 0xAB) // trailing byte: nothing may rely on exhaustion
		cols := []int{}
		for c := range p.A {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		for _, take := range [][]int{nil, cols} {
			want := p.A
			if take != nil {
				want = p.A.Project(take)
			}
			got := make(Tuple, len(want))
			n, size, err := DecodeCompactColumns(got, enc, len(p.A), take)
			if err != nil || n != len(enc)-1 || size != p.A.SizeBytes() || !got.Equal(want) {
				t.Logf("row %v columns %v: got %v, %d bytes, size %d, err %v", p.A, take, got, n, size, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// A skipped value is still checked: corruption is reported whether or
	// not the column it sits in is read.
	bad := append(AppendCompactTuple(nil, Tuple{Int(1)}), tagString, 5, 'a')
	for _, take := range [][]int{nil, {0}, {1}, {}} {
		if _, _, err := DecodeCompactColumns(make(Tuple, 2), bad, 2, take); err == nil {
			t.Fatalf("columns %v of a row with a corrupt string decoded", take)
		}
	}
}

// TestDecodeStringAllocatesOnce pins the string decode at one allocation
// (the string itself) when nothing in it is escaped.
func TestDecodeStringAllocatesOnce(t *testing.T) {
	enc := EncodeTuple(Tuple{String("a string long enough not to be interned or inlined")})
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeValue(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("DecodeValue of an unescaped string: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := SkipValue(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SkipValue: %v allocations, want 0", n)
	}
}

// TestQuickCompactRoundTrip: CompactNumber agrees with AsFloat on every
// value of a compact row, bit for bit, and steps over exactly the row;
// the edge values of every kind decode to themselves.
func TestQuickCompactRoundTrip(t *testing.T) {
	f := func(p tuplePair) bool {
		enc := append(AppendCompactTuple(nil, p.A), 0xAB)
		off := 0
		for _, v := range p.A {
			f, numeric, n, err := CompactNumber(enc[off:])
			isNum := v.Kind == KindInt || v.Kind == KindFloat
			if err != nil || numeric != isNum || isNum && math.Float64bits(f) != math.Float64bits(v.AsFloat()) {
				t.Logf("CompactNumber(%v) = %v, %v, %v", v, f, numeric, err)
				return false
			}
			off += n
		}
		return off == len(enc)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{Int(math.MinInt64), Int(math.MaxInt64), Int(-1), Float(math.Copysign(0, -1)),
		Float(math.NaN()), String(""), String("\x00"), String("a\x00b"), Null()} {
		got, n, err := DecodeCompactTuple(AppendCompactValue(nil, v), 1)
		if err != nil || n != len(AppendCompactValue(nil, v)) || !bytes.Equal(AppendCompactTuple(nil, got), AppendCompactValue(nil, v)) {
			t.Fatalf("round trip %v -> %v (%d bytes, %v)", v, got, n, err)
		}
	}
}

// TestCompactCorrupt: a truncated varint, a string running past the input
// and an unknown tag are corruption, read or stepped over.
func TestCompactCorrupt(t *testing.T) {
	for _, b := range [][]byte{
		{},
		{tagInt},
		{tagInt, 0x80},
		{tagInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflows 64 bits
		{tagFloat, 1, 2, 3},
		{tagString, 3, 'a', 'b'},
		{tagString, 0x80},
		{0x09},
	} {
		for _, take := range [][]int{nil, {}} {
			if _, _, err := DecodeCompactColumns(make(Tuple, 1), b, 1, take); err == nil {
				t.Errorf("columns %v of %v decoded", take, b)
			}
		}
		if _, _, _, err := CompactNumber(b); err == nil {
			t.Errorf("CompactNumber(%v) did not fail", b)
		}
	}
}

// TestCompactFloat: a statistic comes back bit for bit — −0, NaN, ±Inf and
// the integers either side of 2⁵³ included — and costs one or two bytes
// when it is a small integer.
func TestCompactFloat(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 63, -64, 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2),
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		enc := AppendCompactFloat(nil, f)
		var got [1]float64
		n, err := DecodeCompactFloats(got[:], append(enc, 0xAB))
		if err != nil || n != len(enc) || math.Float64bits(got[0]) != math.Float64bits(f) {
			t.Fatalf("%v: decoded %v, %d of %d bytes, %v", f, got, n, len(enc), err)
		}
		if f == math.Trunc(f) && math.Abs(f) < 32 && !math.Signbit(f) && len(enc) != 1 {
			t.Fatalf("%v takes %d bytes", f, len(enc))
		}
	}
	for _, b := range [][]byte{{}, {0x80}, {3}, {1, 0, 0}, binary.AppendUvarint(nil, (1<<54+2)<<1)} {
		if _, err := DecodeCompactFloats(make([]float64, 1), b); err == nil {
			t.Fatalf("DecodeCompactFloats(%v) did not fail", b)
		}
	}
}

// observationRow is one row of MOT's OBSERVATION relation, 15 values wide.
var observationRow = Tuple{
	Int(104217), Int(37), Int(20842), String("2009-07-14"), Int(64), String("N"), Int(2),
	String("DRY"), Int(17), String("LONDON"), Int(131), Int(0), Int(3), Int(4), String("MOTORWAY"),
}

// BenchmarkTupleCodec encodes and decodes one OBSERVATION row in each codec:
// the order-preserving one keys use, the compact one blocks use.
func BenchmarkTupleCodec(b *testing.B) {
	codecs := []struct {
		name   string
		encode func([]byte, Tuple) []byte
		decode func(Tuple, []byte) (int, error)
	}{
		{"ordered", AppendTuple, func(dst Tuple, b []byte) (int, error) { return DecodeInto(dst, b) }},
		{"compact", AppendCompactTuple, func(dst Tuple, b []byte) (int, error) {
			n, _, err := DecodeCompactColumns(dst, b, len(dst), nil)
			return n, err
		}},
	}
	for _, c := range codecs {
		enc := c.encode(nil, observationRow)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				buf = c.encode(buf[:0], observationRow)
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			dst := make(Tuple, len(observationRow))
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(dst, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
