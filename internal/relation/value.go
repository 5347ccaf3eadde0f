// Package relation provides the relational substrate shared by every layer
// of the Zidian reproduction: typed values, tuples, relation schemas,
// in-memory relations and databases, and an order-preserving tuple codec
// used for KV keys and block payloads.
package relation

import (
	"fmt"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. The numeric order of the constants is also the cross-kind
// sort order used by Compare and by the order-preserving codec.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. It is a comparable struct (no
// slices or maps) so it can be used directly as a map key.
type Value struct {
	Kind Kind
	Int  int64
	Flt  float64
	Str  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, Flt: f} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64. Strings and nulls yield 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Flt
	default:
		return 0
	}
}

// Compare orders two values. Numeric values (int and float) compare
// numerically across kinds; otherwise values of different kinds order by
// Kind. NULL sorts before everything.
func Compare(a, b Value) int {
	an, bn := a.Kind == KindInt || a.Kind == KindFloat, b.Kind == KindInt || b.Kind == KindFloat
	if an && bn {
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			}
			return 0
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	if a.Kind == KindString {
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		}
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Flt, 'g', -1, 64)
	case KindString:
		return v.Str
	default:
		return "?"
	}
}

// CoerceKind validates a bind-time value against an expected attribute kind
// and returns the value to use. Numeric kinds interconvert losslessly (an
// integral float binds to an int column as the int, an int binds to a float
// column as the float) so wire formats that blur the distinction still hit
// the right blocks; anything else is a type mismatch. KindNull as the
// expectation accepts any non-null value. NULL never binds: the query
// fragment has no NULL comparisons.
func CoerceKind(v Value, want Kind) (Value, error) {
	if v.Kind == KindNull {
		return Value{}, fmt.Errorf("relation: cannot bind NULL parameter")
	}
	switch want {
	case KindNull:
		return v, nil
	case KindInt:
		switch v.Kind {
		case KindInt:
			return v, nil
		case KindFloat:
			if i := int64(v.Flt); float64(i) == v.Flt {
				return Int(i), nil
			}
		}
	case KindFloat:
		switch v.Kind {
		case KindFloat:
			return v, nil
		case KindInt:
			return Float(float64(v.Int)), nil
		}
	case KindString:
		if v.Kind == KindString {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("relation: parameter type mismatch: %s value for %s column", v.Kind, want)
}

// SizeBytes is the accounting size of a value: the number of bytes the
// value occupies when shipped between the storage and SQL layers. It is
// used by the experiment harness to report communication volumes.
func (v Value) SizeBytes() int {
	switch v.Kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return len(v.Str) + 1
	default:
		return 1
	}
}
