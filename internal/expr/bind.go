package expr

import (
	"fmt"
	"math"

	"repro/internal/table"
)

// Compiled is an expression bound to a table and compiled into a typed
// evaluator for its declared Kind. Exactly one evaluator is set: f for
// KindDouble, i for KindInt and KindDate, s for KindString. Each returns
// the row's value and whether it is missing; the value of a missing
// result is meaningless. Every row evaluates to Kind (the kind
// invariant), which bind-time kind checks guarantee, so no consumer
// re-checks the kind of a result.
type Compiled struct {
	Kind table.Kind
	f    func(row int) (float64, bool)
	i    func(row int) (int64, bool)
	s    func(row int) (string, bool)
	// konst marks a result that reads no row; BindNode folds it into a
	// precomputed constant.
	konst bool
}

func doubles(f func(row int) (float64, bool)) *Compiled {
	return &Compiled{Kind: table.KindDouble, f: f}
}

func ints(k table.Kind, f func(row int) (int64, bool)) *Compiled {
	return &Compiled{Kind: k, i: f}
}

func strs(f func(row int) (string, bool)) *Compiled {
	return &Compiled{Kind: table.KindString, s: f}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Value boxes the result at row. It and builtin arguments are the only
// places evaluation builds a table.Value; it satisfies the contract of
// table.NewComputedColumn, which is how derived columns are materialized
// lazily and recomputed after cache eviction (paper §5.6).
func (c *Compiled) Value(row int) table.Value {
	switch c.Kind {
	case table.KindDouble:
		v, miss := c.f(row)
		if miss {
			return table.MissingValue(table.KindDouble)
		}
		return table.DoubleValue(v)
	case table.KindString:
		v, miss := c.s(row)
		if miss {
			return table.MissingValue(table.KindString)
		}
		return table.StringValue(v)
	default:
		v, miss := c.i(row)
		if miss {
			return table.MissingValue(c.Kind)
		}
		return table.Value{Kind: c.Kind, I: v}
	}
}

// asDouble returns a numeric result as float64 (ints and dates convert;
// a constant converts once, here).
func (c *Compiled) asDouble() func(row int) (float64, bool) {
	if c.Kind == table.KindDouble {
		return c.f
	}
	i := c.i
	if c.konst {
		v, miss := i(0)
		f := float64(v)
		return func(int) (float64, bool) { return f, miss }
	}
	return func(row int) (float64, bool) {
		v, miss := i(row)
		return float64(v), miss
	}
}

// truth returns the truthiness test of the result: non-zero numbers
// (NaN included) and non-empty strings are true. The second result
// reports a missing value, which is neither true nor false.
func (c *Compiled) truth() func(row int) (bool, bool) {
	switch c.Kind {
	case table.KindDouble:
		f := c.f
		return func(row int) (bool, bool) {
			v, miss := f(row)
			return v != 0, miss
		}
	case table.KindString:
		s := c.s
		return func(row int) (bool, bool) {
			v, miss := s(row)
			return v != "", miss
		}
	default:
		i := c.i
		return func(row int) (bool, bool) {
			v, miss := i(row)
			return v != 0, miss
		}
	}
}

// constant compiles a fixed value.
func constant(v table.Value) *Compiled {
	var c *Compiled
	switch v.Kind {
	case table.KindDouble:
		d, miss := v.D, v.Missing
		c = doubles(func(int) (float64, bool) { return d, miss })
	case table.KindString:
		s, miss := v.S, v.Missing
		c = strs(func(int) (string, bool) { return s, miss })
	default:
		i, miss := v.I, v.Missing
		c = ints(v.Kind, func(int) (int64, bool) { return i, miss })
	}
	c.konst = true
	return c
}

// column compiles a column reference. Stored columns are read from their
// backing slices and missing masks; any other column through Value.
func column(col table.Column) *Compiled {
	switch c := col.(type) {
	case *table.DoubleColumn:
		vals := c.Doubles()
		if !c.HasMissing() {
			return doubles(func(row int) (float64, bool) { return vals[row], false })
		}
		mask := c.MissingMask().Words
		return doubles(func(row int) (float64, bool) { return vals[row], missingBit(mask, row) })
	case *table.IntColumn:
		vals := c.Ints()
		if !c.HasMissing() {
			return ints(c.Kind(), func(row int) (int64, bool) { return vals[row], false })
		}
		mask := c.MissingMask().Words
		return ints(c.Kind(), func(row int) (int64, bool) { return vals[row], missingBit(mask, row) })
	case *table.StringColumn:
		codes, dict, mask := c.Codes(), c.Dict(), c.MissingMask()
		return strs(func(row int) (string, bool) {
			if mask.Get(row) {
				return "", true
			}
			return dict[codes[row]], false
		})
	}
	switch col.Kind() {
	case table.KindDouble:
		return doubles(func(row int) (float64, bool) {
			v := col.Value(row)
			return v.Double(), v.Missing
		})
	case table.KindString:
		return strs(func(row int) (string, bool) {
			v := col.Value(row)
			return v.S, v.Missing
		})
	default:
		return ints(col.Kind(), func(row int) (int64, bool) {
			v := col.Value(row)
			return v.I, v.Missing
		})
	}
}

// missingBit reads row's bit of a missing mask without a branch.
func missingBit(words []uint64, row int) bool {
	return words[row>>6]>>(uint(row)&63)&1 != 0
}

// Bind parses and compiles src against a table.
func Bind(src string, t *table.Table) (*Compiled, error) {
	node, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return BindNode(node, t)
}

// BindNode compiles an AST against a table, resolving column references
// and checking kinds. A subexpression that reads no column is evaluated
// once here and compiled as a constant.
func BindNode(node Node, t *table.Table) (*Compiled, error) {
	c, err := bindNode(node, t)
	if err != nil {
		return nil, err
	}
	if c.konst {
		return constant(c.Value(0)), nil
	}
	return c, nil
}

func bindNode(node Node, t *table.Table) (*Compiled, error) {
	switch n := node.(type) {
	case *NumberNode:
		if n.IsInt {
			return constant(table.IntValue(n.I)), nil
		}
		return constant(table.DoubleValue(n.F)), nil

	case *StringNode:
		return constant(table.StringValue(n.S)), nil

	case *ColumnNode:
		col, err := t.Column(n.Name)
		if err != nil {
			return nil, err
		}
		return column(col), nil

	case *UnaryNode:
		x, err := BindNode(n.X, t)
		if err != nil {
			return nil, err
		}
		c, err := bindUnary(n.Op, x)
		if err != nil {
			return nil, err
		}
		c.konst = x.konst
		return c, nil

	case *BinaryNode:
		l, err := BindNode(n.L, t)
		if err != nil {
			return nil, err
		}
		r, err := BindNode(n.R, t)
		if err != nil {
			return nil, err
		}
		c, err := bindBinary(n.Op, l, r)
		if err != nil {
			return nil, err
		}
		c.konst = l.konst && r.konst
		return c, nil

	case *CallNode:
		return bindCall(n, t)

	default:
		return nil, fmt.Errorf("expr: unknown node %T", node)
	}
}

func bindUnary(op string, x *Compiled) (*Compiled, error) {
	switch op {
	case "-":
		switch x.Kind {
		case table.KindDouble:
			f := x.f
			return doubles(func(row int) (float64, bool) {
				v, miss := f(row)
				return -v, miss
			}), nil
		case table.KindInt, table.KindDate:
			// Negating a date yields a plain int.
			i := x.i
			return ints(table.KindInt, func(row int) (int64, bool) {
				v, miss := i(row)
				return -v, miss
			}), nil
		default:
			return nil, fmt.Errorf("expr: unary - over %v", x.Kind)
		}
	case "!":
		tr := x.truth()
		return ints(table.KindInt, func(row int) (int64, bool) {
			v, miss := tr(row)
			return b2i(!v), miss
		}), nil
	default:
		return nil, fmt.Errorf("expr: unknown unary %q", op)
	}
}

func bindBinary(op string, l, r *Compiled) (*Compiled, error) {
	bothNumeric := l.Kind.Numeric() && r.Kind.Numeric()
	bothString := l.Kind == table.KindString && r.Kind == table.KindString

	switch op {
	case "+", "-", "*", "%":
		if op == "+" && bothString {
			ls, rs := l.s, r.s
			return strs(func(row int) (string, bool) {
				a, am := ls(row)
				b, bm := rs(row)
				if am || bm {
					return "", true
				}
				return a + b, false
			}), nil
		}
		if !bothNumeric {
			return nil, fmt.Errorf("expr: %s over %v and %v", op, l.Kind, r.Kind)
		}
		// A double when either side is one, otherwise an int (dates
		// become millis). Modulo by zero yields missing.
		if l.Kind == table.KindDouble || r.Kind == table.KindDouble {
			lf, rf := l.asDouble(), r.asDouble()
			if op == "%" {
				return doubles(func(row int) (float64, bool) {
					a, am := lf(row)
					b, bm := rf(row)
					if am || bm || b == 0 {
						return 0, true
					}
					return math.Mod(a, b), false
				}), nil
			}
			return doubles(arith(op, lf, rf)), nil
		}
		li, ri := l.i, r.i
		if op == "%" {
			return ints(table.KindInt, func(row int) (int64, bool) {
				a, am := li(row)
				b, bm := ri(row)
				if am || bm || b == 0 {
					return 0, true
				}
				return a % b, false
			}), nil
		}
		return ints(table.KindInt, arith(op, li, ri)), nil

	case "/":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: / over %v and %v", l.Kind, r.Kind)
		}
		// Division always yields a double (as in JavaScript, the language
		// this substitutes for); division by zero yields missing.
		lf, rf := l.asDouble(), r.asDouble()
		return doubles(func(row int) (float64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			if am || bm || b == 0 {
				return 0, true
			}
			return a / b, false
		}), nil

	case "==", "!=", "<", "<=", ">", ">=":
		switch {
		case bothString:
			return ints(table.KindInt, compare(op, l.s, r.s)), nil
		case bothNumeric && l.Kind == r.Kind && l.Kind != table.KindDouble:
			return ints(table.KindInt, compare(op, l.i, r.i)), nil
		case bothNumeric:
			// Mixed kinds compare as doubles. IEEE rules, not the total
			// sort order: a NaN operand makes every relation false
			// except !=.
			return ints(table.KindInt, compare(op, l.asDouble(), r.asDouble())), nil
		}
		return nil, fmt.Errorf("expr: %s over %v and %v", op, l.Kind, r.Kind)

	case "&&", "||":
		// The left side decides alone when it is present and false (for
		// &&) or true (for ||); otherwise a missing side makes the
		// result missing.
		decides := op == "||"
		lt, rt := l.truth(), r.truth()
		return ints(table.KindInt, func(row int) (int64, bool) {
			a, am := lt(row)
			if !am && a == decides {
				return b2i(decides), false
			}
			b, bm := rt(row)
			if am || bm {
				return 0, true
			}
			return b2i(b), false
		}), nil

	default:
		return nil, fmt.Errorf("expr: unknown operator %q", op)
	}
}

// arith compiles +, - or * over two operands of one Go type; the
// result is missing when either operand is.
func arith[T int64 | float64](op string, lf, rf func(int) (T, bool)) func(int) (T, bool) {
	switch op {
	case "+":
		return func(row int) (T, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return a + b, am || bm
		}
	case "-":
		return func(row int) (T, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return a - b, am || bm
		}
	default: // "*"
		return func(row int) (T, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return a * b, am || bm
		}
	}
}

// compare compiles a relational operator over two operands of one Go
// type; the result is 0/1, or missing when either operand is.
func compare[T int64 | float64 | string](op string, lf, rf func(int) (T, bool)) func(int) (int64, bool) {
	switch op {
	case "==":
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a == b), am || bm
		}
	case "!=":
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a != b), am || bm
		}
	case "<":
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a < b), am || bm
		}
	case "<=":
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a <= b), am || bm
		}
	case ">":
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a > b), am || bm
		}
	default: // ">="
		return func(row int) (int64, bool) {
			a, am := lf(row)
			b, bm := rf(row)
			return b2i(a >= b), am || bm
		}
	}
}

// bindCall compiles a builtin call: the arguments' kinds are checked and
// the result kind inferred at bind time, and each row boxes its
// arguments into the builtin's evaluator and unboxes the result into the
// declared kind (so an int chosen by if/coalesce/min/max in a double
// call becomes a double).
func bindCall(n *CallNode, t *table.Table) (*Compiled, error) {
	spec := builtins[n.Func]
	args := make([]*Compiled, len(n.Args))
	kinds := make([]table.Kind, len(n.Args))
	konst := true
	for i, a := range n.Args {
		c, err := BindNode(a, t)
		if err != nil {
			return nil, err
		}
		args[i], kinds[i] = c, c.Kind
		konst = konst && c.konst
	}
	kind, err := spec.kind(kinds)
	if err != nil {
		return nil, fmt.Errorf("expr: %s: %w", n.Func, err)
	}
	eval := func(row int) table.Value {
		vals := make([]table.Value, len(args))
		for i, a := range args {
			vals[i] = a.Value(row)
			if vals[i].Missing && !spec.passMissing {
				return vals[i]
			}
		}
		return spec.eval(vals)
	}
	var c *Compiled
	switch kind {
	case table.KindDouble:
		c = doubles(func(row int) (float64, bool) {
			v := eval(row)
			return v.Double(), v.Missing
		})
	case table.KindString:
		c = strs(func(row int) (string, bool) {
			v := eval(row)
			return v.S, v.Missing
		})
	default:
		c = ints(kind, func(row int) (int64, bool) {
			v := eval(row)
			return v.I, v.Missing
		})
	}
	c.konst = konst
	return c, nil
}

// Predicate binds src as a row filter: the compiled expression's
// truthiness, with missing treated as false (filters drop rows the
// predicate cannot decide).
func Predicate(src string, t *table.Table) (func(row int) bool, error) {
	c, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	tr := c.truth()
	return func(row int) bool {
		v, miss := tr(row)
		// Bitwise rather than &&: filters keep rows at any rate, and a
		// branch here mispredicts on every other row near 50%.
		return b2i(v)&^b2i(miss) != 0
	}, nil
}

// DeriveColumn binds src and wraps it as a computed column over the
// table's physical rows.
func DeriveColumn(src string, t *table.Table) (table.Column, error) {
	c, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	return table.NewComputedColumn(c.Kind, t.Members().Max(), c.Value), nil
}
