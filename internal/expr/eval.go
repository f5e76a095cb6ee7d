package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/table"
)

// builtinSpec describes one builtin function: arity bounds, the
// argument-kind check and result-kind inference run at bind time, whether
// it sees missing arguments (default: any missing argument makes the
// result missing), and the evaluator. The kind check is what lets the
// typed evaluator trust a call's declared kind: eval's result is unboxed
// into it (an int chosen where the kind is double converts).
type builtinSpec struct {
	minArgs, maxArgs int
	passMissing      bool
	kind             func(args []table.Kind) (table.Kind, error)
	eval             func(args []table.Value) table.Value
}

// numeric rejects non-numeric arguments (positions from from on).
func numeric(args []table.Kind, from int) error {
	for i := from; i < len(args); i++ {
		if !args[i].Numeric() {
			return fmt.Errorf("argument %d is %v, want a number", i+1, args[i])
		}
	}
	return nil
}

// numKind takes numbers and yields a double if any argument is one,
// else an int.
func numKind(args []table.Kind) (table.Kind, error) {
	if err := numeric(args, 0); err != nil {
		return table.KindNone, err
	}
	for _, k := range args {
		if k == table.KindDouble {
			return table.KindDouble, nil
		}
	}
	return table.KindInt, nil
}

// numTo takes numbers and yields k.
func numTo(k table.Kind) func([]table.Kind) (table.Kind, error) {
	return func(args []table.Kind) (table.Kind, error) { return k, numeric(args, 0) }
}

// anyTo takes any kinds (strings of numbers use the display form) and
// yields k.
func anyTo(k table.Kind) func([]table.Kind) (table.Kind, error) {
	return func([]table.Kind) (table.Kind, error) { return k, nil }
}

// unify is the kind of a value chosen from args[from:] (min, max, if,
// coalesce): all strings give a string; all numbers give their common
// kind, a double if any is one, else an int.
func unify(args []table.Kind, from int) (table.Kind, error) {
	ks := args[from:]
	if ks[0] == table.KindString {
		for i, k := range ks {
			if k != table.KindString {
				return table.KindNone, fmt.Errorf("argument %d is %v, others are strings", from+i+1, k)
			}
		}
		return table.KindString, nil
	}
	if err := numeric(args, from); err != nil {
		return table.KindNone, err
	}
	kind := ks[0]
	for _, k := range ks[1:] {
		switch {
		case k == kind:
		case k == table.KindDouble || kind == table.KindDouble:
			kind = table.KindDouble
		default:
			kind = table.KindInt // ints mixed with dates
		}
	}
	return kind, nil
}

var builtins = map[string]builtinSpec{
	"abs": {1, 1, false, numKind, func(a []table.Value) table.Value {
		if a[0].Kind == table.KindDouble {
			return table.DoubleValue(math.Abs(a[0].D))
		}
		v := a[0].I
		if v < 0 {
			v = -v
		}
		return table.IntValue(v)
	}},
	"floor": {1, 1, false, numTo(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Floor(a[0].Double())))
	}},
	"ceil": {1, 1, false, numTo(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Ceil(a[0].Double())))
	}},
	"round": {1, 1, false, numTo(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(math.Round(a[0].Double())))
	}},
	"sqrt": {1, 1, false, numTo(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Sqrt(a[0].Double()))
	}},
	"exp": {1, 1, false, numTo(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Exp(a[0].Double()))
	}},
	"log": {1, 1, false, numTo(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Log(a[0].Double()))
	}},
	"pow": {2, 2, false, numTo(table.KindDouble), func(a []table.Value) table.Value {
		return table.DoubleValue(math.Pow(a[0].Double(), a[1].Double()))
	}},
	// min and max follow math.Min and math.Max: a NaN argument gives NaN.
	// NaN sorts after every other double, so max needs no NaN check.
	"min": {2, 2, false, unifyAll, func(a []table.Value) table.Value {
		if isNaN(a[1]) {
			return a[1]
		}
		if isNaN(a[0]) || a[0].Compare(a[1]) <= 0 {
			return a[0]
		}
		return a[1]
	}},
	"max": {2, 2, false, unifyAll, func(a []table.Value) table.Value {
		if a[0].Compare(a[1]) >= 0 {
			return a[0]
		}
		return a[1]
	}},
	"len": {1, 1, false, strTo(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(int64(len(a[0].S)))
	}},
	"lower": {1, 1, false, anyTo(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.ToLower(a[0].String()))
	}},
	"upper": {1, 1, false, anyTo(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.ToUpper(a[0].String()))
	}},
	"trim": {1, 1, false, anyTo(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(strings.TrimSpace(a[0].String()))
	}},
	"substr": {3, 3, false, substrKind, func(a []table.Value) table.Value {
		s := a[0].String()
		start, n := int(a[1].I), int(a[2].I)
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		// Compare n with the remaining length rather than start+n with
		// len(s): start+n overflows for n near MaxInt64.
		end := len(s)
		if n >= 0 && n < end-start {
			end = start + n
		}
		return table.StringValue(s[start:end])
	}},
	"concat": {2, 8, false, anyTo(table.KindString), func(a []table.Value) table.Value {
		var sb strings.Builder
		for _, v := range a {
			sb.WriteString(v.String())
		}
		return table.StringValue(sb.String())
	}},
	"contains": {2, 2, false, anyTo(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.Contains(a[0].String(), a[1].String()))
	}},
	"startsWith": {2, 2, false, anyTo(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.HasPrefix(a[0].String(), a[1].String()))
	}},
	"endsWith": {2, 2, false, anyTo(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(strings.HasSuffix(a[0].String(), a[1].String()))
	}},
	"year":    dateField(func(t time.Time) int64 { return int64(t.Year()) }),
	"month":   dateField(func(t time.Time) int64 { return int64(t.Month()) }),
	"day":     dateField(func(t time.Time) int64 { return int64(t.Day()) }),
	"hour":    dateField(func(t time.Time) int64 { return int64(t.Hour()) }),
	"minute":  dateField(func(t time.Time) int64 { return int64(t.Minute()) }),
	"weekday": dateField(func(t time.Time) int64 { return int64(t.Weekday()) }),
	"toInt": {1, 1, false, anyTo(table.KindInt), func(a []table.Value) table.Value {
		switch a[0].Kind {
		case table.KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(a[0].S), 10, 64)
			if err != nil {
				return table.MissingValue(table.KindInt)
			}
			return table.IntValue(i)
		default:
			return table.IntValue(int64(a[0].Double()))
		}
	}},
	"toDouble": {1, 1, false, anyTo(table.KindDouble), func(a []table.Value) table.Value {
		switch a[0].Kind {
		case table.KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(a[0].S), 64)
			if err != nil {
				return table.MissingValue(table.KindDouble)
			}
			return table.DoubleValue(f)
		default:
			return table.DoubleValue(a[0].Double())
		}
	}},
	"toString": {1, 1, false, anyTo(table.KindString), func(a []table.Value) table.Value {
		return table.StringValue(a[0].String())
	}},
	"toDate": {1, 1, false, numTo(table.KindDate), func(a []table.Value) table.Value {
		return table.Value{Kind: table.KindDate, I: int64(a[0].Double())}
	}},
	"isMissing": {1, 1, true, anyTo(table.KindInt), func(a []table.Value) table.Value {
		return boolValue(a[0].Missing)
	}},
	"coalesce": {2, 8, true, unifyAll, func(a []table.Value) table.Value {
		for _, v := range a {
			if !v.Missing {
				return v
			}
		}
		return a[len(a)-1]
	}},
	"if": {3, 3, true, func(args []table.Kind) (table.Kind, error) { return unify(args, 1) }, func(a []table.Value) table.Value {
		if truthy(a[0]) {
			return a[1]
		}
		return a[2]
	}},
}

func unifyAll(args []table.Kind) (table.Kind, error) { return unify(args, 0) }

// strTo takes strings and yields k.
func strTo(k table.Kind) func([]table.Kind) (table.Kind, error) {
	return func(args []table.Kind) (table.Kind, error) {
		for i, a := range args {
			if a != table.KindString {
				return table.KindNone, fmt.Errorf("argument %d is %v, want a string", i+1, a)
			}
		}
		return k, nil
	}
}

// substrKind takes any first argument (numbers use the display form)
// and int positions.
func substrKind(args []table.Kind) (table.Kind, error) {
	for i := 1; i < len(args); i++ {
		if args[i] != table.KindInt {
			return table.KindNone, fmt.Errorf("argument %d is %v, want an int", i+1, args[i])
		}
	}
	return table.KindString, nil
}

func dateField(f func(time.Time) int64) builtinSpec {
	return builtinSpec{1, 1, false, numTo(table.KindInt), func(a []table.Value) table.Value {
		return table.IntValue(f(time.UnixMilli(int64(a[0].Double())).UTC()))
	}}
}

func checkArity(name string, n int) error {
	b := builtins[name]
	if n < b.minArgs || n > b.maxArgs {
		return fmt.Errorf("expr: %s takes %d..%d arguments, got %d", name, b.minArgs, b.maxArgs, n)
	}
	return nil
}

func boolValue(b bool) table.Value {
	if b {
		return table.IntValue(1)
	}
	return table.IntValue(0)
}

// truthy reports whether a value counts as true: non-zero numbers and
// non-empty strings. Missing values are not truthy.
func truthy(v table.Value) bool {
	if v.Missing {
		return false
	}
	switch v.Kind {
	case table.KindString:
		return v.S != ""
	default:
		return v.Double() != 0
	}
}

func isNaN(v table.Value) bool { return v.Kind == table.KindDouble && math.IsNaN(v.D) }
