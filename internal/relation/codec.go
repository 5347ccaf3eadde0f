package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// The codec encodes tuples into byte strings whose bytewise (memcmp) order
// equals the tuple order defined by Tuple.Compare. Order preservation is
// what lets composite keys work as DHT keys and lets the segments of one
// logical BaaV block stay adjacent under a common prefix.
//
// Layout per value: a 1-byte kind tag followed by a kind-specific payload.
//   null:   tag only
//   int:    8 bytes big-endian with the sign bit flipped
//   float:  8 bytes of IEEE-754 bits, sign-adjusted so order is preserved
//   string: raw bytes with 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x01
//
// Kind tags are ordered like Kind constants so cross-kind order matches
// Compare for non-numeric mixes. (Mixed int/float keys are not used by the
// workloads; schemas are typed.)

const (
	tagNull   byte = 0x01
	tagInt    byte = 0x02
	tagFloat  byte = 0x03
	tagString byte = 0x04
)

var errCorrupt = errors.New("relation: corrupt encoded tuple")

// AppendValue appends the order-preserving encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		dst = append(dst, tagInt)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.Int)^(1<<63))
		return append(dst, buf[:]...)
	case KindFloat:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(v.Flt)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip everything
		} else {
			bits |= 1 << 63 // positive floats: set the sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case KindString:
		dst = append(dst, tagString)
		for i := 0; i < len(v.Str); i++ {
			c := v.Str[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00, 0x01)
	default:
		panic(fmt.Sprintf("relation: cannot encode kind %v", v.Kind))
	}
}

// DecodeValue decodes one value from the front of b, returning the value and
// the number of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return Null(), 1, nil
	case tagInt:
		if len(b) < 9 {
			return Value{}, 0, errCorrupt
		}
		u := binary.BigEndian.Uint64(b[1:9])
		return Int(int64(u ^ (1 << 63))), 9, nil
	case tagFloat:
		if len(b) < 9 {
			return Value{}, 0, errCorrupt
		}
		bits := binary.BigEndian.Uint64(b[1:9])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), 9, nil
	case tagString:
		end, escapes, err := stringEnd(b)
		if err != nil {
			return Value{}, 0, err
		}
		if escapes == 0 {
			return String(string(b[1 : end-2])), end, nil
		}
		out := make([]byte, 0, end-3-escapes)
		for i := 1; i < end-2; i++ {
			out = append(out, b[i])
			if b[i] == 0x00 {
				i++ // the 0xFF of the escape pair
			}
		}
		return String(string(out)), end, nil
	default:
		return Value{}, 0, errCorrupt
	}
}

// stringEnd finds the end of the string value at the front of b (b[0] is
// the tag): the offset just past its 0x00 0x01 terminator, and how many
// escaped 0x00 bytes the payload holds — zero for almost every string, in
// which case the payload is the decoded string as it stands.
func stringEnd(b []byte) (end, escapes int, err error) {
	i := 1
	for {
		z := bytes.IndexByte(b[i:], 0x00)
		if z < 0 || i+z+1 >= len(b) {
			return 0, 0, errCorrupt
		}
		i += z + 2
		switch b[i-1] {
		case 0x01:
			return i, escapes, nil
		case 0xFF:
			escapes++
		default:
			return 0, 0, errCorrupt
		}
	}
}

// EncodeTuple encodes a tuple with the order-preserving codec.
func EncodeTuple(t Tuple) []byte {
	out := make([]byte, 0, 16*len(t))
	for _, v := range t {
		out = AppendValue(out, v)
	}
	return out
}

// AppendTuple appends the encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodedLen returns the number of bytes AppendTuple appends for t, so a
// caller encoding many tuples into one buffer can size it once.
func EncodedLen(t Tuple) int {
	n := 0
	for _, v := range t {
		switch v.Kind {
		case KindInt, KindFloat:
			n += 9
		case KindString:
			n += 3 + len(v.Str) + strings.Count(v.Str, "\x00")
		default:
			n++
		}
	}
	return n
}

// DecodeTuple decodes exactly n values from b, returning the tuple and the
// bytes consumed: DecodeColumns taking every column.
func DecodeTuple(b []byte, n int) (Tuple, int, error) {
	t := make(Tuple, n)
	off, _, err := DecodeColumns(t, b, n, nil)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// DecodeColumns reads the n-value row at the front of b, materializing the
// values at positions cols (ascending; nil takes all n) into dst — which
// must hold len(cols) values, or n — and stepping over the rest without
// building a Value. It returns the bytes consumed and the accounting size
// (Tuple.SizeBytes) of the whole row, which it reads off the encoded form,
// so a reader that keeps three columns of fourteen still accounts for the
// fourteen it fetched.
func DecodeColumns(dst Tuple, b []byte, n int, cols []int) (consumed, size int, err error) {
	next := 0 // index into cols (or dst, when cols is nil) of the next value to keep
	for i := 0; i < n; i++ {
		if cols != nil && (next == len(cols) || cols[next] != i) {
			k, sz, err := skipValue(b[consumed:])
			if err != nil {
				return 0, 0, err
			}
			consumed += k
			size += sz
			continue
		}
		v, k, err := DecodeValue(b[consumed:])
		if err != nil {
			return 0, 0, err
		}
		dst[next] = v
		next++
		consumed += k
		size += v.SizeBytes()
	}
	return consumed, size, nil
}

// AppendColumns appends to dst the encodings of the values at positions cols
// (ascending) of the n-value row encoded at the front of b, stepping over
// the others: the key of the projected row, built without decoding a value.
func AppendColumns(dst, b []byte, n int, cols []int) ([]byte, error) {
	off, next := 0, 0
	for i := 0; i < n && next < len(cols); i++ {
		k, _, err := skipValue(b[off:])
		if err != nil {
			return nil, err
		}
		if cols[next] == i {
			dst = append(dst, b[off:off+k]...)
			next++
		}
		off += k
	}
	return dst, nil
}

// SkipValue returns the encoded length of the first value in b without
// materializing it.
func SkipValue(b []byte) (int, error) {
	n, _, err := skipValue(b)
	return n, err
}

// skipValue is SkipValue that also reports the accounting size
// (Value.SizeBytes) the value would have decoded to.
func skipValue(b []byte) (n, size int, err error) {
	if len(b) == 0 {
		return 0, 0, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return 1, 1, nil
	case tagInt, tagFloat:
		if len(b) < 9 {
			return 0, 0, errCorrupt
		}
		return 9, 8, nil
	case tagString:
		end, escapes, err := stringEnd(b)
		if err != nil {
			return 0, 0, err
		}
		// tag + payload + terminator = end bytes; an escape pair decodes to
		// one byte, and the accounting size is the string's length plus one.
		return end, end - 2 - escapes, nil
	default:
		return 0, 0, errCorrupt
	}
}

// SkipTuple returns the encoded length of the first n values in b without
// decoding them. Posting walks cut payloads into per-key byte slices and
// never look at the values; decoding just to learn the cut points was the
// single largest allocator in the mixed benchmark.
func SkipTuple(b []byte, n int) (int, error) {
	off := 0
	for i := 0; i < n; i++ {
		k, err := SkipValue(b[off:])
		if err != nil {
			return 0, err
		}
		off += k
	}
	return off, nil
}

// DecodeAll decodes values until b is exhausted.
func DecodeAll(b []byte) (Tuple, error) {
	var t Tuple
	off := 0
	for off < len(b) {
		v, k, err := DecodeValue(b[off:])
		if err != nil {
			return nil, err
		}
		t = append(t, v)
		off += k
	}
	return t, nil
}

// KeyString encodes a tuple and returns it as a string, convenient as a Go
// map key for hashing keyed blocks and intermediate results.
func KeyString(t Tuple) string { return string(EncodeTuple(t)) }
