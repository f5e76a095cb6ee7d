package expr

import (
	"fmt"
	"math"

	"repro/internal/table"
)

// refExpr is an expression compiled by referenceEval: a boxed per-row
// function and the kind it declares.
type refExpr struct {
	Kind table.Kind
	Fn   func(row int) table.Value
}

// referenceEval is the boxed row interpreter the typed evaluator
// replaced, kept as the oracle the typed evaluator must match bit for
// bit. Every node is a func(row) table.Value and every operator works
// on boxed values. It differs from the original in one place, the
// intended behaviour change: builtin calls check argument kinds with the
// builtin table's kind rules and convert their result to the declared
// kind (if, coalesce, min and max used to return whichever argument they
// chose, of whatever kind).
func referenceEval(node Node, t *table.Table) (*refExpr, error) {
	switch n := node.(type) {
	case *NumberNode:
		if n.IsInt {
			v := table.IntValue(n.I)
			return &refExpr{Kind: table.KindInt, Fn: func(int) table.Value { return v }}, nil
		}
		v := table.DoubleValue(n.F)
		return &refExpr{Kind: table.KindDouble, Fn: func(int) table.Value { return v }}, nil

	case *StringNode:
		v := table.StringValue(n.S)
		return &refExpr{Kind: table.KindString, Fn: func(int) table.Value { return v }}, nil

	case *ColumnNode:
		col, err := t.Column(n.Name)
		if err != nil {
			return nil, err
		}
		return &refExpr{Kind: col.Kind(), Fn: col.Value}, nil

	case *UnaryNode:
		x, err := referenceEval(n.X, t)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			if !x.Kind.Numeric() {
				return nil, fmt.Errorf("expr: unary - over %v", x.Kind)
			}
			kind := x.Kind
			if kind == table.KindDate {
				kind = table.KindInt
			}
			return &refExpr{Kind: kind, Fn: func(row int) table.Value {
				v := x.Fn(row)
				if v.Missing {
					return table.MissingValue(kind)
				}
				if kind == table.KindDouble {
					return table.DoubleValue(-v.Double())
				}
				return table.IntValue(-v.I)
			}}, nil
		case "!":
			return &refExpr{Kind: table.KindInt, Fn: func(row int) table.Value {
				v := x.Fn(row)
				if v.Missing {
					return table.MissingValue(table.KindInt)
				}
				return boolValue(!truthy(v))
			}}, nil
		default:
			return nil, fmt.Errorf("expr: unknown unary %q", n.Op)
		}

	case *BinaryNode:
		return referenceBinary(n, t)

	case *CallNode:
		spec := builtins[n.Func]
		args := make([]*refExpr, len(n.Args))
		kinds := make([]table.Kind, len(n.Args))
		for i, a := range n.Args {
			c, err := referenceEval(a, t)
			if err != nil {
				return nil, err
			}
			args[i] = c
			kinds[i] = c.Kind
		}
		kind, err := spec.kind(kinds)
		if err != nil {
			return nil, err
		}
		return &refExpr{Kind: kind, Fn: func(row int) table.Value {
			vals := make([]table.Value, len(args))
			for i, a := range args {
				vals[i] = a.Fn(row)
				if vals[i].Missing && !spec.passMissing {
					return table.MissingValue(kind)
				}
			}
			return promote(spec.eval(vals), kind)
		}}, nil

	default:
		return nil, fmt.Errorf("expr: unknown node %T", node)
	}
}

// promote converts a builtin's result to its declared kind: a missing
// value takes the kind, a number converts to a double or relabels
// between int and date. Any other mismatch is left for the comparison to
// report.
func promote(v table.Value, kind table.Kind) table.Value {
	switch {
	case v.Kind == kind:
		return v
	case v.Missing:
		return table.MissingValue(kind)
	case kind == table.KindDouble && v.Kind.Numeric():
		return table.DoubleValue(v.Double())
	case (kind == table.KindInt || kind == table.KindDate) && (v.Kind == table.KindInt || v.Kind == table.KindDate):
		return table.Value{Kind: kind, I: v.I}
	}
	return v
}

func referenceBinary(n *BinaryNode, t *table.Table) (*refExpr, error) {
	l, err := referenceEval(n.L, t)
	if err != nil {
		return nil, err
	}
	r, err := referenceEval(n.R, t)
	if err != nil {
		return nil, err
	}
	bothNumeric := l.Kind.Numeric() && r.Kind.Numeric()
	bothString := l.Kind == table.KindString && r.Kind == table.KindString

	switch n.Op {
	case "+":
		if bothString {
			return &refExpr{Kind: table.KindString, Fn: func(row int) table.Value {
				a, b := l.Fn(row), r.Fn(row)
				if a.Missing || b.Missing {
					return table.MissingValue(table.KindString)
				}
				return table.StringValue(a.S + b.S)
			}}, nil
		}
		fallthrough
	case "-", "*":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: %s over %v and %v", n.Op, l.Kind, r.Kind)
		}
		kind := table.KindInt
		if l.Kind == table.KindDouble || r.Kind == table.KindDouble {
			kind = table.KindDouble
		}
		op := n.Op
		return &refExpr{Kind: kind, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(kind)
			}
			if kind == table.KindDouble {
				x, y := a.Double(), b.Double()
				switch op {
				case "+":
					return table.DoubleValue(x + y)
				case "-":
					return table.DoubleValue(x - y)
				default:
					return table.DoubleValue(x * y)
				}
			}
			x, y := a.I, b.I
			switch op {
			case "+":
				return table.IntValue(x + y)
			case "-":
				return table.IntValue(x - y)
			default:
				return table.IntValue(x * y)
			}
		}}, nil

	case "/":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: / over %v and %v", l.Kind, r.Kind)
		}
		return &refExpr{Kind: table.KindDouble, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing || b.Double() == 0 {
				return table.MissingValue(table.KindDouble)
			}
			return table.DoubleValue(a.Double() / b.Double())
		}}, nil

	case "%":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: %% over %v and %v", l.Kind, r.Kind)
		}
		kind := table.KindInt
		if l.Kind == table.KindDouble || r.Kind == table.KindDouble {
			kind = table.KindDouble
		}
		return &refExpr{Kind: kind, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing || b.Double() == 0 {
				return table.MissingValue(kind)
			}
			if kind == table.KindDouble {
				return table.DoubleValue(math.Mod(a.Double(), b.Double()))
			}
			return table.IntValue(a.I % b.I)
		}}, nil

	case "==", "!=", "<", "<=", ">", ">=":
		if !bothNumeric && !bothString {
			return nil, fmt.Errorf("expr: %s over %v and %v", n.Op, l.Kind, r.Kind)
		}
		op := n.Op
		return &refExpr{Kind: table.KindInt, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			// IEEE rules, not the total sort order: a NaN operand makes
			// every relation false except !=.
			if isNaN(a) || isNaN(b) {
				return boolValue(op == "!=")
			}
			c := a.Compare(b)
			switch op {
			case "==":
				return boolValue(c == 0)
			case "!=":
				return boolValue(c != 0)
			case "<":
				return boolValue(c < 0)
			case "<=":
				return boolValue(c <= 0)
			case ">":
				return boolValue(c > 0)
			default:
				return boolValue(c >= 0)
			}
		}}, nil

	case "&&":
		return &refExpr{Kind: table.KindInt, Fn: func(row int) table.Value {
			a := l.Fn(row)
			if !a.Missing && !truthy(a) {
				return boolValue(false) // short-circuit
			}
			b := r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			return boolValue(truthy(b))
		}}, nil

	case "||":
		return &refExpr{Kind: table.KindInt, Fn: func(row int) table.Value {
			a := l.Fn(row)
			if !a.Missing && truthy(a) {
				return boolValue(true) // short-circuit
			}
			b := r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			return boolValue(truthy(b))
		}}, nil

	default:
		return nil, fmt.Errorf("expr: unknown operator %q", n.Op)
	}
}
