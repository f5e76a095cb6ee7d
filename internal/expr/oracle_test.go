package expr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/table"
)

// oracleTables returns table.GenPartitions tables (int, double, string,
// date and computed double columns, missing masks, every membership
// shape) with two more columns of edge values: "gx" holds NaN, ±0, ±Inf
// and extreme doubles, "gn" extreme ints; both have missing cells.
func oracleTables(seed uint64) []*table.Table {
	parts, _ := table.GenPartitions(fmt.Sprintf("oracle%d", seed), seed, 120, 3)
	rng := rand.New(rand.NewPCG(seed, 7))
	specialD := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 2.5, -3, 1e308, 5e-324}
	specialI := []int64{0, 1, -1, 7, -7, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1}
	for p, t := range parts {
		n := t.Members().Max()
		xs, ns := make([]float64, n), make([]int64, n)
		xm, nm := table.NewBitset(n), table.NewBitset(n)
		for i := 0; i < n; i++ {
			xs[i] = specialD[rng.IntN(len(specialD))]
			ns[i] = specialI[rng.IntN(len(specialI))]
			if rng.IntN(8) == 0 {
				xm.Set(i)
				xs[i] = 0
			}
			if rng.IntN(8) == 0 {
				nm.Set(i)
				ns[i] = 0
			}
		}
		t, err := t.WithColumn(t.ID(), "gx", table.NewDoubleColumn(xs, xm))
		if err == nil {
			t, err = t.WithColumn(t.ID(), "gn", table.NewIntColumn(table.KindInt, ns, nm))
		}
		if err != nil {
			panic(err)
		}
		parts[p] = t
	}
	return parts
}

// exprGen draws random expression source over oracleTables' columns.
type exprGen struct{ rng *rand.Rand }

var (
	genColumns  = []string{"gi", "gd", "gs", "gt", "gc", "gx", "gn"}
	genLiterals = []string{"0", "1", "-1", "3", "10", "0.0", "-0.0", "2.5", "-7.5", "1e308",
		"9007199254740993", "1500000000000", `""`, `"w00001"`, `"w00002"`, `"a"`, `" x "`}
	genBinary = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
	genFuncs  = func() []string {
		var names []string
		for name := range builtins {
			names = append(names, name)
		}
		slices.Sort(names)
		return names
	}()
)

func (g *exprGen) expr(depth int) string {
	if depth <= 0 || g.rng.IntN(5) == 0 {
		if g.rng.IntN(3) == 0 {
			return genLiterals[g.rng.IntN(len(genLiterals))]
		}
		return genColumns[g.rng.IntN(len(genColumns))]
	}
	switch g.rng.IntN(8) {
	case 0, 1, 2, 3:
		op := genBinary[g.rng.IntN(len(genBinary))]
		return "(" + g.expr(depth-1) + " " + op + " " + g.expr(depth-1) + ")"
	case 4:
		return []string{"-", "!"}[g.rng.IntN(2)] + "(" + g.expr(depth-1) + ")"
	default:
		name := genFuncs[g.rng.IntN(len(genFuncs))]
		spec := builtins[name]
		n := spec.minArgs + g.rng.IntN(min(spec.maxArgs, 4)-spec.minArgs+1)
		args := make([]string, n)
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	}
}

func sameValue(a, b table.Value) bool {
	return a.Kind == b.Kind && a.Missing == b.Missing && a.I == b.I &&
		math.Float64bits(a.D) == math.Float64bits(b.D) && a.S == b.S
}

// checkAgainstReference binds src both ways on t. When the typed bind
// accepts, the reference must accept with the same kind, and Value and
// Predicate must agree with it bit for bit (Kind and Missing included)
// on every physical row. It reports whether bind accepted.
func checkAgainstReference(t *testing.T, src string, tbl *table.Table) bool {
	t.Helper()
	c, err := Bind(src, tbl)
	if err != nil {
		return false
	}
	node, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: Bind accepted what Parse rejects: %v", src, err)
	}
	ref, err := referenceEval(node, tbl)
	if err != nil {
		t.Fatalf("%s: typed bind accepted, reference rejected: %v", src, err)
	}
	if c.Kind != ref.Kind {
		t.Fatalf("%s: kind %v, reference %v", src, c.Kind, ref.Kind)
	}
	pred, err := Predicate(src, tbl)
	if err != nil {
		t.Fatalf("%s: Bind accepted, Predicate rejected: %v", src, err)
	}
	for row := 0; row < tbl.Members().Max(); row++ {
		got, want := c.Value(row), ref.Fn(row)
		if !sameValue(got, want) {
			t.Fatalf("%s on %s row %d: typed %#v, reference %#v", src, tbl.ID(), row, got, want)
		}
		if pred(row) != truthy(want) {
			t.Fatalf("%s on %s row %d: Predicate %t, reference value %#v", src, tbl.ID(), row, pred(row), want)
		}
	}
	return true
}

// TestTypedMatchesReference runs seeded random expressions over
// generated tables through the typed evaluator and the boxed reference.
func TestTypedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		tables := oracleTables(seed)
		g := &exprGen{rng: rand.New(rand.NewPCG(seed, 99))}
		accepted := 0
		for attempt := 0; attempt < 4000 && accepted < 600; attempt++ {
			src := g.expr(1 + g.rng.IntN(4))
			ok := false
			for _, tbl := range tables {
				ok = checkAgainstReference(t, src, tbl)
			}
			if ok {
				accepted++
			}
		}
		if accepted < 300 {
			t.Fatalf("seed %d: only %d generated expressions bound; the generator no longer covers the language", seed, accepted)
		}
	}
}

// TestTypedMatchesReferenceEdges pins the edge cases the generator
// reaches only by chance.
func TestTypedMatchesReferenceEdges(t *testing.T) {
	srcs := []string{
		"gx / 0", "gx / -0.0", "gx % 0", "gx % -0.0", "gi % 0", "gn % -1", "gn / gn",
		"gx == gx", "gx != gx", "gx < 1", "gx >= -0.0", "-0.0 == 0", "gn == gt", "gn < gx", "gi <= gd",
		// Ints and dates compare as doubles, like Value.Compare: 2^53+1
		// equals the date 2^53.
		"gn == toDate(9007199254740992)", "gn > toDate(9007199254740992)",
		"gs < \"w00002\"", "gs >= gs", "gs == \"\"", "gs + \"!\"",
		"gx && gi", "gx || gi", "gs && gd > 0", "(gi > 0) && (gd > 0)", "(gn > 0) || (gx > 0)",
		"!gx", "!gs", "-gt", "-gx", "gt - gt", "gt + 1", "gn * gn", "gn + gn", "-(-9223372036854775807 - 1)",
		"min(gx, 1)", "max(1, gx)", "min(gi, gd)", "max(gt, gt)", "min(gs, \"w00003\")",
		"if(gx, gi, gd)", "if(gi > 0, gt, 0)", "if(gs, gs, \"none\")", "coalesce(gi, gd, 0)", "coalesce(gs, gs)",
		"toInt(gx)", "toDouble(gs)", "toString(gx)", "toDate(gd)", "year(gt)", "floor(gx)", "abs(gn)",
		"substr(gs, 1, -1)", "len(gs)", "isMissing(gx)", "sqrt(gx)", "pow(gx, 0.5)", "log(gx)",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tbl := range oracleTables(seed) {
			for _, src := range srcs {
				if !checkAgainstReference(t, src, tbl) {
					t.Fatalf("Bind(%q) failed", src)
				}
			}
		}
	}
}

// FuzzExpr checks arbitrary source: Parse and Bind must not panic, and
// whatever binds must agree with the reference.
func FuzzExpr(f *testing.F) {
	for _, src := range []string{
		"gd > 10", "gd > 10 && gs == \"w00001\"", "abs(gx - gd) > 20", "if(gi > 0, gd, 0)",
		"coalesce(gn, gx) % 3", "min(gs, gs) + \"x\"", "!(gt >= 1500000000000) || gx != gx",
	} {
		f.Add(src)
	}
	tables := oracleTables(1)
	f.Fuzz(func(t *testing.T, src string) {
		for _, tbl := range tables {
			checkAgainstReference(t, src, tbl)
		}
	})
}

// TestBuiltinKinds checks the kind invariant at the one boundary where
// the typed evaluator trusts unchecked code: over every argument-kind
// combination a builtin accepts, its evaluator returns values of the
// declared kind. Only the choosing builtins (if, coalesce, min, max)
// may return a number of another numeric kind, which the call converts.
func TestBuiltinKinds(t *testing.T) {
	tbl := exprTestTable(t)
	operands := map[table.Kind][]string{
		table.KindInt:    {"a", "3"},
		table.KindDouble: {"b", "2.5"},
		table.KindString: {"s", `"x"`},
		table.KindDate:   {"d", "toDate(0)"},
	}
	kinds := []table.Kind{table.KindInt, table.KindDouble, table.KindString, table.KindDate}
	choosing := map[string]bool{"if": true, "coalesce": true, "min": true, "max": true}
	for _, name := range genFuncs {
		spec := builtins[name]
		for n := spec.minArgs; n <= min(spec.maxArgs, 3); n++ {
			combo := make([]int, n)
			for {
				args := make([]string, n)
				for i, k := range combo {
					args[i] = operands[kinds[k]][i%2]
				}
				src := name + "(" + strings.Join(args, ", ") + ")"
				node, err := Parse(src)
				if err != nil {
					t.Fatalf("Parse(%q): %v", src, err)
				}
				if c, err := Bind(src, tbl); err == nil {
					call := node.(*CallNode)
					argv := make([]*Compiled, n)
					for i, a := range call.Args {
						if argv[i], err = BindNode(a, tbl); err != nil {
							t.Fatal(err)
						}
					}
					for row := 0; row < tbl.NumRows(); row++ {
						vals := make([]table.Value, n)
						skip := false
						for i, a := range argv {
							vals[i] = a.Value(row)
							skip = skip || (vals[i].Missing && !spec.passMissing)
						}
						if skip {
							continue
						}
						v := spec.eval(vals)
						ok := v.Kind == c.Kind ||
							(v.Missing && spec.passMissing) ||
							(choosing[name] && v.Kind.Numeric() && c.Kind.Numeric())
						if !ok {
							t.Errorf("%s row %d: evaluator returned %v, declared %v", src, row, v.Kind, c.Kind)
						}
					}
				}
				// Next argument-kind combination.
				i := 0
				for ; i < n; i++ {
					combo[i]++
					if combo[i] < len(kinds) {
						break
					}
					combo[i] = 0
				}
				if i == n {
					break
				}
			}
		}
	}
}

// TestBuiltinKindRules pins each builtin kind rule: numeric builtins
// reject strings, substr positions must be ints, and the choosing
// builtins take all numbers or all strings; numbers of different kinds
// promote (an int chosen in a double call becomes a double).
func TestBuiltinKindRules(t *testing.T) {
	tbl := exprTestTable(t)
	for _, src := range []string{
		"min(a, s)", "max(s, 1)", "if(a > 0, s, 3)", "coalesce(b, s)", "coalesce(s, s, a)",
		"sqrt(s)", "abs(s)", "year(s)", "floor(s)", "pow(2, s)", "toDate(s)", "len(a)",
		"substr(s, 1.0, 2)", "substr(s, 0, 2.0)", "substr(s, d, 2)",
	} {
		if _, err := Bind(src, tbl); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
	cases := []struct {
		src  string
		kind table.Kind
		row  int
		want table.Value
	}{
		{"min(s, \"b\")", table.KindString, 0, table.StringValue("SFO")},
		{"max(s, \"b\")", table.KindString, 1, table.StringValue("jfk")},
		{"if(a > 0, b, 0)", table.KindDouble, 1, table.DoubleValue(0)},
		{"if(a > 0, b, 0)", table.KindDouble, 0, table.DoubleValue(2.5)},
		{"if(a > 0, 0, b)", table.KindDouble, 0, table.DoubleValue(0)},
		{"coalesce(a, 2.5)", table.KindDouble, 0, table.DoubleValue(10)},
		{"coalesce(a, 2.5)", table.KindDouble, 2, table.DoubleValue(2.5)},
		{"min(a, b)", table.KindDouble, 0, table.DoubleValue(2.5)},
		{"max(a, b)", table.KindDouble, 0, table.DoubleValue(10)},
		{"max(d, d)", table.KindDate, 0, table.Value{Kind: table.KindDate, I: tbl.MustColumn("d").Int(0)}},
		{"if(a > 0, d, 0)", table.KindInt, 1, table.IntValue(0)},
		{"substr(s, 1, 1)", table.KindString, 0, table.StringValue("F")},
		{"len(s)", table.KindInt, 1, table.IntValue(3)},
	}
	for _, c := range cases {
		comp, err := Bind(c.src, tbl)
		if err != nil {
			t.Errorf("Bind(%q): %v", c.src, err)
			continue
		}
		if comp.Kind != c.kind {
			t.Errorf("%s: kind %v, want %v", c.src, comp.Kind, c.kind)
		}
		if got := comp.Value(c.row); !sameValue(got, c.want) {
			t.Errorf("%s at row %d = %#v, want %#v", c.src, c.row, got, c.want)
		}
	}
}
