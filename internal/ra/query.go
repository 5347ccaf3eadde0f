// Package ra models SPC and RAaggr queries over a relational schema: binding
// from the SQL AST, equality classes, tableau-style SPC minimization, and a
// reference in-memory evaluator used as ground truth by tests and as the
// compute layer of the TaaV baseline.
package ra

import (
	"fmt"
	"sort"
	"strings"

	"zidian/internal/relation"
	"zidian/internal/sql"
)

// Atom is one relation occurrence in the FROM clause.
type Atom struct {
	Rel    string
	Alias  string
	Schema *relation.Schema
}

// ColRef is a bound, alias-qualified attribute reference.
type ColRef struct {
	Alias string
	Attr  string
}

// String renders the reference as "alias.attr".
func (c ColRef) String() string { return c.Alias + "." + c.Attr }

// AttrEq is an equality join/selection predicate between two attributes.
type AttrEq struct{ L, R ColRef }

// ConstEq is an equality selection with a constant.
type ConstEq struct {
	Col ColRef
	Val relation.Value
}

// ParamEq is an equality selection with a bind-time parameter (col = ?).
// The value is unknown when the template is planned but fixed for each
// execution, so the planner treats the class as constant-pinned: its value
// seeds the chase, and the concrete literal is injected by Bind.
type ParamEq struct {
	Col  ColRef
	Slot int // 0-based placeholder index
}

// InPred is a disjunctive constant selection col IN (v1..vn). Slots lists
// the placeholder indices of `?` elements; Vals holds the literal elements.
type InPred struct {
	Col   ColRef
	Vals  []relation.Value
	Slots []int
}

// Filter is a non-equality comparison: col op literal, col op `?`, or
// col op col.
type Filter struct {
	Col   ColRef
	Op    sql.CmpOp
	Lit   *relation.Value
	Param *int // placeholder index for a `?` RHS
	RCol  *ColRef
}

// Agg is one aggregate output.
type Agg struct {
	Func sql.AggFunc
	Col  ColRef
	Star bool
	Name string // output column name
}

// Query is a bound RAaggr query: an SPC core (atoms, equalities, filters,
// projection) plus optional group-by aggregates, DISTINCT, ORDER BY, LIMIT.
type Query struct {
	Atoms    []Atom
	EqAttrs  []AttrEq
	EqConsts []ConstEq
	EqParams []ParamEq
	Ins      []InPred
	Filters  []Filter
	// Proj holds the plain output columns. When Aggs is non-empty these are
	// exactly the group-by keys (global aggregates have empty Proj).
	Proj []ColRef
	Aggs []Agg
	// OutNames gives the output column names in final order: plain columns
	// first (as listed in SELECT), then aggregates.
	OutNames []string
	Distinct bool
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	// LimitParam is the placeholder slot of a LIMIT ? clause (nil for a
	// literal or absent limit). The slot's expected kind is int and the
	// bound value must be non-negative; it shapes only the answer cut, so
	// the plan template is independent of it.
	LimitParam *int
	// NumParams counts the `?` placeholders; a query with NumParams > 0 is a
	// template and must be bound (the plan-level Bind) with exactly that
	// many values before execution.
	NumParams int
	// ParamKinds records, per placeholder slot, the relation.Kind of the
	// column the placeholder is compared with (or inserted into). Bind
	// validates supplied values against it; KindNull means unconstrained.
	ParamKinds []relation.Kind
}

// OrderKey is one ORDER BY entry, referring to an output column by name.
type OrderKey struct {
	Name string
	Desc bool
}

// IsAggregate reports whether the query has group-by aggregates.
func (q *Query) IsAggregate() bool { return len(q.Aggs) > 0 }

// Atom returns the atom with the given alias, or nil.
func (q *Query) Atom(alias string) *Atom {
	for i := range q.Atoms {
		if q.Atoms[i].Alias == alias {
			return &q.Atoms[i]
		}
	}
	return nil
}

// Bind resolves a parsed SQL query against a database schema, checking that
// every table and attribute exists and that references are unambiguous.
func Bind(ast *sql.Query, db *relation.Database) (*Query, error) {
	q := &Query{Limit: ast.Limit, Distinct: ast.Distinct}
	seen := make(map[string]bool)
	for _, ref := range ast.From {
		schema := db.Schema(ref.Name)
		if schema == nil {
			return nil, fmt.Errorf("ra: unknown relation %q", ref.Name)
		}
		if seen[ref.Alias] {
			return nil, fmt.Errorf("ra: duplicate alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		q.Atoms = append(q.Atoms, Atom{Rel: ref.Name, Alias: ref.Alias, Schema: schema})
	}

	resolve := func(c sql.Col) (ColRef, error) {
		if c.Table != "" {
			a := q.Atom(c.Table)
			if a == nil {
				return ColRef{}, fmt.Errorf("ra: unknown alias %q in %s", c.Table, c)
			}
			if !a.Schema.Has(c.Name) {
				return ColRef{}, fmt.Errorf("ra: relation %s has no attribute %q", a.Rel, c.Name)
			}
			return ColRef{Alias: c.Table, Attr: c.Name}, nil
		}
		var found *Atom
		for i := range q.Atoms {
			if q.Atoms[i].Schema.Has(c.Name) {
				if found != nil {
					return ColRef{}, fmt.Errorf("ra: ambiguous attribute %q", c.Name)
				}
				found = &q.Atoms[i]
			}
		}
		if found == nil {
			return ColRef{}, fmt.Errorf("ra: unknown attribute %q", c.Name)
		}
		return ColRef{Alias: found.Alias, Attr: c.Name}, nil
	}

	q.NumParams = ast.NumParams
	if q.NumParams > 0 {
		q.ParamKinds = make([]relation.Kind, q.NumParams)
	}
	if ast.LimitParam != nil {
		slot := ast.LimitParam.Index
		q.LimitParam = &slot
		if slot >= 0 && slot < len(q.ParamKinds) {
			q.ParamKinds[slot] = relation.KindInt
		}
	}
	// kindOf returns the declared kind of a bound column, for param slot
	// type expectations.
	kindOf := func(c ColRef) relation.Kind {
		a := q.Atom(c.Alias)
		if a == nil {
			return relation.KindNull
		}
		if i := a.Schema.Index(c.Attr); i >= 0 {
			return a.Schema.Attrs[i].Kind
		}
		return relation.KindNull
	}
	expectKind := func(slot int, c ColRef) {
		if slot >= 0 && slot < len(q.ParamKinds) {
			q.ParamKinds[slot] = kindOf(c)
		}
	}
	// coerceLit aligns a predicate literal with its column's declared kind
	// when the conversion is lossless (44.0 over an int column becomes the
	// int 44), mirroring what CheckParams does for `?` bindings. Compare
	// treats numeric kinds uniformly, so this never changes a predicate's
	// truth value — but key-encoded access paths (constant ∝ probes, index
	// postings, posting-range fences) partition by kind tag, and only a
	// kind-aligned literal finds the stored keys. Lossy mixes (44.5 over an
	// int column) stay as written: equality on them is unsatisfiable either
	// way, and the planner's range path rounds its fences separately.
	coerceLit := func(c ColRef, v relation.Value) relation.Value {
		if cv, err := relation.CoerceKind(v, kindOf(c)); err == nil {
			return cv
		}
		return v
	}

	// WHERE clause: classify conjuncts.
	for _, p := range ast.Where {
		left, err := resolve(p.Left)
		if err != nil {
			return nil, err
		}
		switch {
		case p.IsIn():
			for _, pr := range p.InParams {
				expectKind(pr.Index, left)
			}
			switch {
			case len(p.InParams) == 0 && len(p.In) == 1:
				q.EqConsts = append(q.EqConsts, ConstEq{Col: left, Val: coerceLit(left, p.In[0])})
			case len(p.In) == 0 && len(p.InParams) == 1:
				q.EqParams = append(q.EqParams, ParamEq{Col: left, Slot: p.InParams[0].Index})
			default:
				in := InPred{Col: left}
				for _, v := range p.In {
					in.Vals = append(in.Vals, coerceLit(left, v))
				}
				for _, pr := range p.InParams {
					in.Slots = append(in.Slots, pr.Index)
				}
				q.Ins = append(q.Ins, in)
			}
		case p.Op == sql.OpEq && p.Param != nil:
			expectKind(p.Param.Index, left)
			q.EqParams = append(q.EqParams, ParamEq{Col: left, Slot: p.Param.Index})
		case p.Op == sql.OpEq && p.Lit != nil:
			q.EqConsts = append(q.EqConsts, ConstEq{Col: left, Val: coerceLit(left, *p.Lit)})
		case p.Op == sql.OpEq && p.Right != nil:
			right, err := resolve(*p.Right)
			if err != nil {
				return nil, err
			}
			q.EqAttrs = append(q.EqAttrs, AttrEq{L: left, R: right})
		case p.Param != nil:
			expectKind(p.Param.Index, left)
			slot := p.Param.Index
			q.Filters = append(q.Filters, Filter{Col: left, Op: p.Op, Param: &slot})
		case p.Lit != nil:
			lit := coerceLit(left, *p.Lit)
			q.Filters = append(q.Filters, Filter{Col: left, Op: p.Op, Lit: &lit})
		case p.Right != nil:
			right, err := resolve(*p.Right)
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, Filter{Col: left, Op: p.Op, RCol: &right})
		default:
			return nil, fmt.Errorf("ra: malformed predicate %v", p)
		}
	}

	// SELECT list.
	if ast.Star {
		if ast.GroupBy != nil {
			return nil, fmt.Errorf("ra: SELECT * with GROUP BY is not supported")
		}
		for _, a := range q.Atoms {
			for _, attr := range a.Schema.Attrs {
				c := ColRef{Alias: a.Alias, Attr: attr.Name}
				q.Proj = append(q.Proj, c)
				q.OutNames = append(q.OutNames, c.String())
			}
		}
	} else {
		var plainNames []string
		for _, item := range ast.Items {
			if item.Agg == sql.AggNone {
				c, err := resolve(item.Col)
				if err != nil {
					return nil, err
				}
				name := item.Alias
				if name == "" {
					name = c.String()
				}
				q.Proj = append(q.Proj, c)
				plainNames = append(plainNames, name)
				continue
			}
			agg := Agg{Func: item.Agg, Star: item.Star, Name: item.Alias}
			if !item.Star {
				c, err := resolve(item.Col)
				if err != nil {
					return nil, err
				}
				agg.Col = c
			}
			if agg.Name == "" {
				if agg.Star {
					agg.Name = string(agg.Func) + "(*)"
				} else {
					agg.Name = fmt.Sprintf("%s(%s)", agg.Func, agg.Col)
				}
			}
			q.Aggs = append(q.Aggs, agg)
		}
		q.OutNames = plainNames
		for _, a := range q.Aggs {
			q.OutNames = append(q.OutNames, a.Name)
		}
	}

	// GROUP BY validation: with aggregates, plain outputs must equal the
	// group-by keys.
	if len(ast.GroupBy) > 0 {
		if len(q.Aggs) == 0 {
			return nil, fmt.Errorf("ra: GROUP BY without aggregates is not supported")
		}
		keys := make(map[ColRef]bool)
		for _, g := range ast.GroupBy {
			c, err := resolve(g)
			if err != nil {
				return nil, err
			}
			keys[c] = true
		}
		if len(keys) != len(q.Proj) {
			return nil, fmt.Errorf("ra: GROUP BY keys must match plain select columns")
		}
		for _, c := range q.Proj {
			if !keys[c] {
				return nil, fmt.Errorf("ra: select column %s is not a GROUP BY key", c)
			}
		}
	} else if len(q.Aggs) > 0 && len(q.Proj) > 0 {
		return nil, fmt.Errorf("ra: mixing plain columns and aggregates requires GROUP BY")
	}

	// ORDER BY must refer to output columns.
	for _, o := range ast.OrderBy {
		name := ""
		if o.Col.Table == "" {
			name = o.Col.Name
		} else {
			name = o.Col.Table + "." + o.Col.Name
		}
		idx := -1
		for i, n := range q.OutNames {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Allow ordering by the bound form of a plain column.
			if c, err := resolve(o.Col); err == nil {
				for i, p := range q.Proj {
					if p == c {
						idx = i
						name = q.OutNames[i]
						break
					}
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("ra: ORDER BY column %q is not in the output", name)
		}
		q.OrderBy = append(q.OrderBy, OrderKey{Name: name, Desc: o.Desc})
	}
	return q, nil
}

// Parse parses and binds a SQL string in one step.
func Parse(src string, db *relation.Database) (*Query, error) {
	ast, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return Bind(ast, db)
}

// MustParse is Parse that panics on error; for static workload queries.
func MustParse(src string, db *relation.Database) *Query {
	q, err := Parse(src, db)
	if err != nil {
		panic(err)
	}
	return q
}

// AttrsUsed returns X_R^Q for the atom with the given alias: the attributes
// of that atom that appear in selection/join predicates, IN lists, filters,
// or the final projection (including aggregate inputs). Sorted for
// determinism.
func (q *Query) AttrsUsed(alias string) []string {
	set := make(map[string]bool)
	add := func(c ColRef) {
		if c.Alias == alias {
			set[c.Attr] = true
		}
	}
	for _, e := range q.EqAttrs {
		add(e.L)
		add(e.R)
	}
	for _, e := range q.EqConsts {
		add(e.Col)
	}
	for _, e := range q.EqParams {
		add(e.Col)
	}
	for _, in := range q.Ins {
		add(in.Col)
	}
	for _, f := range q.Filters {
		add(f.Col)
		if f.RCol != nil {
			add(*f.RCol)
		}
	}
	for _, c := range q.Proj {
		add(c)
	}
	for _, a := range q.Aggs {
		if !a.Star {
			add(a.Col)
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the bound query compactly for diagnostics.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("Q{")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s as %s", a.Rel, a.Alias)
	}
	if len(q.EqAttrs)+len(q.EqConsts)+len(q.EqParams)+len(q.Ins)+len(q.Filters) > 0 {
		b.WriteString(" | ")
		first := true
		sep := func() {
			if !first {
				b.WriteString(" ∧ ")
			}
			first = false
		}
		for _, e := range q.EqAttrs {
			sep()
			fmt.Fprintf(&b, "%s=%s", e.L, e.R)
		}
		for _, e := range q.EqConsts {
			sep()
			fmt.Fprintf(&b, "%s=%s", e.Col, e.Val)
		}
		for _, e := range q.EqParams {
			sep()
			fmt.Fprintf(&b, "%s=?%d", e.Col, e.Slot)
		}
		for _, in := range q.Ins {
			sep()
			if len(in.Slots) > 0 {
				fmt.Fprintf(&b, "%s∈%v?%v", in.Col, in.Vals, in.Slots)
			} else {
				fmt.Fprintf(&b, "%s∈%v", in.Col, in.Vals)
			}
		}
		for _, f := range q.Filters {
			sep()
			switch {
			case f.RCol != nil:
				fmt.Fprintf(&b, "%s%s%s", f.Col, f.Op, *f.RCol)
			case f.Param != nil:
				fmt.Fprintf(&b, "%s%s?%d", f.Col, f.Op, *f.Param)
			default:
				fmt.Fprintf(&b, "%s%s%s", f.Col, f.Op, f.Lit)
			}
		}
	}
	b.WriteString(" → ")
	for i, c := range q.Proj {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	for _, a := range q.Aggs {
		b.WriteString(" " + a.Name)
	}
	b.WriteString("}")
	return b.String()
}
