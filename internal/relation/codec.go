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
// bytes consumed.
func DecodeTuple(b []byte, n int) (Tuple, int, error) {
	t := make(Tuple, n)
	off, err := DecodeInto(t, b)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// DecodeInto decodes len(dst) values from the front of b into dst,
// returning the bytes consumed.
func DecodeInto(dst Tuple, b []byte) (int, error) {
	off := 0
	for i := range dst {
		v, k, err := DecodeValue(b[off:])
		if err != nil {
			return 0, err
		}
		dst[i] = v
		off += k
	}
	return off, nil
}

// AppendColumns appends to dst the encodings of the values at positions cols
// (ascending) of the n-value row encoded at the front of b, stepping over
// the others: the key of the projected row, built without decoding a value.
func AppendColumns(dst, b []byte, n int, cols []int) ([]byte, error) {
	off, next := 0, 0
	for i := 0; i < n && next < len(cols); i++ {
		k, err := SkipValue(b[off:])
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
	if len(b) == 0 {
		return 0, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return 1, nil
	case tagInt, tagFloat:
		if len(b) < 9 {
			return 0, errCorrupt
		}
		return 9, nil
	case tagString:
		end, _, err := stringEnd(b)
		return end, err
	default:
		return 0, errCorrupt
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

// KeyString encodes a tuple and returns it as a string, convenient as a Go
// map key for hashing keyed blocks and intermediate results.
func KeyString(t Tuple) string { return string(EncodeTuple(t)) }

// The compact codec encodes the values a store keeps but never compares as
// bytes: the tuples inside a BaaV block (an index's posting fragments
// included) and a TaaV tuple, and a block's statistics. It does not
// preserve order, and keys and encoded group keys stay on the
// order-preserving codec above.
//
// Layout per value: the kind tag of the order-preserving codec, then
//   null:   nothing
//   int:    a zigzag uvarint
//   float:  8 bytes of IEEE-754 bits, little-endian
//   string: a uvarint length, then the raw bytes
//
// A statistic (AppendCompactFloat) has no tag: an integral value within
// 2⁵³ other than −0 is a uvarint of its zigzag form shifted left by one;
// any other value is the uvarint 1 and its 8 bytes of bits.

// AppendCompactValue appends the compact encoding of v to dst.
func AppendCompactValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		return binary.AppendUvarint(append(dst, tagInt), zigzag(v.Int))
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(v.Flt))
	case KindString:
		dst = binary.AppendUvarint(append(dst, tagString), uint64(len(v.Str)))
		return append(dst, v.Str...)
	default:
		panic(fmt.Sprintf("relation: cannot encode kind %v", v.Kind))
	}
}

// AppendCompactTuple appends the compact encoding of t to dst.
func AppendCompactTuple(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = AppendCompactValue(dst, v)
	}
	return dst
}

// DecodeCompactTuple decodes exactly n compact values from b, returning the
// tuple and the bytes consumed.
func DecodeCompactTuple(b []byte, n int) (Tuple, int, error) {
	t := make(Tuple, n)
	off, _, err := DecodeCompactColumns(t, b, n, nil)
	if err != nil {
		return nil, 0, err
	}
	return t, off, nil
}

// DecodeCompactColumns reads the n-value compact row at the front of b,
// materializing the values at positions cols (ascending; nil takes all n)
// into dst — which must hold len(cols) values, or n — and stepping over the
// rest without building a Value. It returns the bytes consumed and the
// accounting size (Tuple.SizeBytes) of the whole row, so a reader that
// keeps three columns of fourteen still accounts for the fourteen it
// fetched.
func DecodeCompactColumns(dst Tuple, b []byte, n int, cols []int) (consumed, size int, err error) {
	next := 0 // index into cols (or dst, when cols is nil) of the next value to keep
	for i := 0; i < n; i++ {
		if cols != nil && (next == len(cols) || cols[next] != i) {
			k, sz, err := skipCompact(b[consumed:])
			if err != nil {
				return 0, 0, err
			}
			consumed += k
			size += sz
			continue
		}
		v, k, err := decodeCompact(b[consumed:])
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

// CompactNumber reads the compact value at the front of b as Value.AsFloat
// would, without building a string: f is the value and numeric reports
// whether it is an int or a float; n is the bytes consumed. A header walk
// calls it on every value of a one-tuple block, so it reads numbers inline
// rather than through a Value.
func CompactNumber(b []byte) (f float64, numeric bool, n int, err error) {
	if len(b) > 1 {
		switch b[0] {
		case tagInt:
			if u, k := binary.Uvarint(b[1:]); k > 0 {
				return float64(unzigzag(u)), true, 1 + k, nil
			}
		case tagFloat:
			if len(b) >= 9 {
				return math.Float64frombits(binary.LittleEndian.Uint64(b[1:])), true, 9, nil
			}
		}
	}
	n, _, err = skipCompact(b)
	return 0, false, n, err
}

// decodeCompact decodes the compact value at the front of b, returning it
// and the bytes consumed.
func decodeCompact(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return Null(), 1, nil
	case tagInt:
		u, k := binary.Uvarint(b[1:])
		if k <= 0 {
			return Value{}, 0, errCorrupt
		}
		return Int(unzigzag(u)), 1 + k, nil
	case tagFloat:
		if len(b) < 9 {
			return Value{}, 0, errCorrupt
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case tagString:
		l, k := binary.Uvarint(b[1:])
		if k <= 0 || l > uint64(len(b)-1-k) {
			return Value{}, 0, errCorrupt
		}
		return String(string(b[1+k : 1+k+int(l)])), 1 + k + int(l), nil
	default:
		return Value{}, 0, errCorrupt
	}
}

// skipCompact returns the length of the compact value at the front of b and
// its accounting size (Value.SizeBytes), building nothing.
func skipCompact(b []byte) (n, size int, err error) {
	if len(b) == 0 {
		return 0, 0, errCorrupt
	}
	switch b[0] {
	case tagNull:
		return 1, 1, nil
	case tagInt:
		if _, k := binary.Uvarint(b[1:]); k > 0 {
			return 1 + k, 8, nil
		}
	case tagFloat:
		if len(b) >= 9 {
			return 9, 8, nil
		}
	case tagString:
		if l, k := binary.Uvarint(b[1:]); k > 0 && l <= uint64(len(b)-1-k) {
			return 1 + k + int(l), int(l) + 1, nil
		}
	}
	return 0, 0, errCorrupt
}

// AppendCompactFloat appends the compact encoding of a statistic to dst.
func AppendCompactFloat(dst []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) <= 1<<53 && !(f == 0 && math.Signbit(f)) {
		return binary.AppendUvarint(dst, zigzag(int64(f))<<1)
	}
	return binary.LittleEndian.AppendUint64(append(dst, 1), math.Float64bits(f))
}

// DecodeCompactFloats decodes len(dst) statistics from the front of b into
// dst, returning the bytes consumed.
func DecodeCompactFloats(dst []float64, b []byte) (int, error) {
	off := 0
	for i := range dst {
		if off < len(b) && b[off]&0x81 == 0 { // a one-byte integer
			dst[i] = float64(unzigzag(uint64(b[off] >> 1)))
			off++
			continue
		}
		u, k := binary.Uvarint(b[off:])
		switch {
		case k <= 0:
			return 0, errCorrupt
		case u&1 == 0:
			v := unzigzag(u >> 1)
			if v < -1<<53 || v > 1<<53 {
				return 0, errCorrupt
			}
			dst[i] = float64(v)
			off += k
		case u != 1 || len(b)-off < k+8:
			return 0, errCorrupt
		default:
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+k:]))
			off += k + 8
		}
	}
	return off, nil
}

func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
