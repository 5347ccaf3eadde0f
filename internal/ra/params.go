package ra

import (
	"fmt"

	"zidian/internal/relation"
)

// CheckParams validates a bound parameter list against a template's arity
// and per-slot expected kinds, returning the (possibly numerically coerced)
// values to execute with. It is the single arity/type gate shared by the
// plan-level Bind and the reference-evaluation path.
func CheckParams(params []relation.Value, numParams int, kinds []relation.Kind) ([]relation.Value, error) {
	if len(params) != numParams {
		return nil, fmt.Errorf("ra: statement wants %d parameters, got %d", numParams, len(params))
	}
	if numParams == 0 {
		return nil, nil
	}
	out := make([]relation.Value, len(params))
	for i, v := range params {
		want := relation.KindNull
		if i < len(kinds) {
			want = kinds[i]
		}
		cv, err := relation.CoerceKind(v, want)
		if err != nil {
			return nil, fmt.Errorf("ra: parameter %d: %w", i, err)
		}
		out[i] = cv
	}
	return out, nil
}

// LimitOf resolves the query's effective LIMIT under already-checked bound
// values: the literal limit when no LIMIT ? slot exists, otherwise the
// slot's value, which must be a non-negative integer (CheckParams has
// coerced numerics to the slot's int kind by the time this runs).
func (q *Query) LimitOf(vals []relation.Value) (int, error) {
	if q.LimitParam == nil {
		return q.Limit, nil
	}
	slot := *q.LimitParam
	if slot < 0 || slot >= len(vals) {
		return 0, fmt.Errorf("ra: LIMIT parameter slot %d out of range (have %d)", slot, len(vals))
	}
	v := vals[slot]
	if v.Kind != relation.KindInt || v.Int < 0 {
		return 0, fmt.Errorf("ra: LIMIT parameter must be a non-negative integer, got %s", v)
	}
	return int(v.Int), nil
}
