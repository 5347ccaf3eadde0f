// Package kba implements KBA, the paper's extension of relational algebra to
// keyed blocks (Section 4.2): plan nodes for the new operators extension (∝)
// and shift (↑), BaaV versions of the classical operators, and the one
// executor of those plans over BaaV stores — partitioned over p workers with
// the interleaved strategy of Section 7.2, sequential at p = 1 — with
// first-class data-access accounting.
package kba

import (
	"fmt"

	"zidian/internal/relation"
)

// KeyedBlock is one (k, B) pair at runtime: a key tuple and the rows of its
// block. Rows form a bag (multiplicities matter for aggregates).
type KeyedBlock struct {
	Key  relation.Tuple
	Rows []relation.Tuple
}

// KeyedRel is a runtime KV instance: keyed blocks whose key and value
// attributes carry query-qualified names ("PS.suppkey").
type KeyedRel struct {
	KeyAttrs []string
	ValAttrs []string
	Blocks   []KeyedBlock
}

// Attrs returns key attributes followed by value attributes.
func (r *KeyedRel) Attrs() []string {
	out := make([]string, 0, len(r.KeyAttrs)+len(r.ValAttrs))
	out = append(out, r.KeyAttrs...)
	out = append(out, r.ValAttrs...)
	return out
}

// Rows returns the total number of flattened rows. A block contributes one
// row per entry in Rows; value-less instances use empty row placeholders to
// carry multiplicities.
func (r *KeyedRel) Rows() int {
	n := 0
	for _, b := range r.Blocks {
		n += len(b.Rows)
	}
	return n
}

// Flatten materializes the relational version: every row is key ++ value.
// Blocks with no value attributes flatten to one copy of their key per
// (empty) row, preserving bag semantics.
func (r *KeyedRel) Flatten() []relation.Tuple {
	out := make([]relation.Tuple, 0, r.Rows())
	for _, b := range r.Blocks {
		if len(r.ValAttrs) == 0 {
			for range b.Rows {
				out = append(out, b.Key)
			}
			continue
		}
		for _, row := range b.Rows {
			out = append(out, b.Key.Concat(row))
		}
	}
	return out
}

// FromRows groups flat rows (over the given attributes) into a KeyedRel
// keyed by keyAttrs, blocks in first-occurrence order; the remaining
// attributes become values. Result shaping (core.PlanInfo.ToResult) keys
// the executor's output by all attributes through it.
func FromRows(attrs []string, rows []relation.Tuple, keyAttrs []string) (*KeyedRel, error) {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	keyIdx := make([]int, 0, len(keyAttrs))
	for _, a := range keyAttrs {
		i, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("kba: attribute %q not in %v", a, attrs)
		}
		keyIdx = append(keyIdx, i)
	}
	var valAttrs []string
	var valIdx []int
	inKey := make(map[string]bool, len(keyAttrs))
	for _, a := range keyAttrs {
		inKey[a] = true
	}
	for i, a := range attrs {
		if !inKey[a] {
			valAttrs = append(valAttrs, a)
			valIdx = append(valIdx, i)
		}
	}
	out := &KeyedRel{KeyAttrs: append([]string{}, keyAttrs...), ValAttrs: valAttrs}
	index := make(map[string]int)
	for _, row := range rows {
		key := row.Project(keyIdx)
		ks := relation.KeyString(key)
		bi, ok := index[ks]
		if !ok {
			bi = len(out.Blocks)
			out.Blocks = append(out.Blocks, KeyedBlock{Key: key})
			index[ks] = bi
		}
		out.Blocks[bi].Rows = append(out.Blocks[bi].Rows, row.Project(valIdx))
	}
	return out, nil
}
