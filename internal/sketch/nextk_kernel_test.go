package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/table"
)

// The tests in this file prove the physical-row next-K kernel equal to
// referenceNextK, the brute-force oracle that materializes and sorts
// every member row, across column kinds (stored, date, computed),
// missing masks, membership shapes, directions, window sizes and start
// rows.

// nextKFroms returns start rows for an order over tbl: nil, the keys
// of the first, middle and last rows in the order, and keys sorting
// before and after every row.
func nextKFroms(t *testing.T, tbl *table.Table, order table.RecordOrder) map[string]table.Row {
	t.Helper()
	all := referenceNextK(t, tbl, &NextKSketch{Order: order, K: tbl.NumRows() + 1})
	out := map[string]table.Row{
		"none":   nil,
		"before": extremeKey(tbl, order, false),
		"after":  extremeKey(tbl, order, true),
	}
	if n := len(all.Rows); n > 0 {
		out["first"] = all.Rows[0][:len(order)].Clone()
		out["middle"] = all.Rows[n/2][:len(order)].Clone()
		out["last"] = all.Rows[n-1][:len(order)].Clone()
	}
	return out
}

// extremeKey builds a key sorting at or before every row (last=false)
// or after every row (last=true) in the order: missing values sort
// first, and the largest value of each kind last.
func extremeKey(tbl *table.Table, order table.RecordOrder, last bool) table.Row {
	key := make(table.Row, len(order))
	for k, o := range order {
		kind := tbl.MustColumn(o.Column).Kind()
		if last != o.Ascending {
			key[k] = table.MissingValue(kind)
			continue
		}
		switch kind {
		case table.KindDouble:
			key[k] = table.DoubleValue(math.NaN())
		case table.KindString:
			key[k] = table.StringValue("\xff\xff")
		default:
			key[k] = table.Value{Kind: kind, I: math.MaxInt64}
		}
	}
	return key
}

// checkNextKMatrix runs every (order, K, From) combination over tbl
// against the reference.
func checkNextKMatrix(t *testing.T, tbl *table.Table, orders []table.RecordOrder, extras [][]string) {
	t.Helper()
	distinct := tbl.NumRows() + 1
	for oi, order := range orders {
		for name, from := range nextKFroms(t, tbl, order) {
			for _, k := range []int{1, 7, 40, distinct} {
				sk := &NextKSketch{Order: order, Extra: extras[oi%len(extras)], K: k, From: from}
				got, err := sk.Summarize(tbl)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceNextK(t, tbl, sk)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s from=%s k=%d:\n got %+v\nwant %+v", tbl.ID(), sk.Name(), name, k, got, want)
				}
			}
		}
	}
}

// TestNextKKernelMatchesReferenceShapes covers every stored kind,
// missing masks (including a non-nil all-clear mask), computed columns,
// and full, range, bitmap, sparse and restricted memberships, with
// duplicate-heavy string keys and mixed directions.
func TestNextKKernelMatchesReferenceShapes(t *testing.T) {
	orders := []table.RecordOrder{
		table.Asc("d"),
		table.Desc("dm"),
		table.Asc("s"),
		table.Desc("sm").Then("i", true),
		table.Asc("cs").Then("dm", false),
		table.Desc("ci").Then("ie", true),
		table.Asc("im").Then("s", false).Then("d", true),
	}
	extras := [][]string{{"i", "s"}, nil, {"dm", "ci"}, {"cs"}}
	for _, c := range eqTables(1500) {
		t.Run(c.name, func(t *testing.T) { checkNextKMatrix(t, c.t, orders, extras) })
	}
}

// TestNextKKernelMatchesReferenceGenerated runs the matrix over the
// testkit generator's partitions: int, double, string, date and
// computed columns with random missing densities, dictionary sizes and
// membership shapes.
func TestNextKKernelMatchesReferenceGenerated(t *testing.T) {
	orders := []table.RecordOrder{
		table.Asc("gd"),
		table.Desc("gs").Then("gt", true),
		table.Asc("gt").Then("gi", false),
		table.Desc("gc").Then("gs", true),
		table.Asc("gs").Then("gc", false).Then("gi", true),
	}
	extras := [][]string{{"gs", "gi"}, {"gd"}, nil, {"gt", "gc"}}
	for seed := uint64(1); seed <= 6; seed++ {
		parts, _ := table.GenPartitions(fmt.Sprintf("nkg%d", seed), seed, 400, 3)
		for _, p := range parts {
			t.Run(p.ID(), func(t *testing.T) { checkNextKMatrix(t, p, orders, extras) })
		}
	}
}

// nanTable holds a double key with NaN, ±Inf, ±0 and missing cells,
// heavily duplicated, and an int tie-break column.
func nanTable(n int) *table.Table {
	vals := []float64{math.NaN(), 1, math.Inf(1), -0.0, 0, math.Inf(-1), 2.5, math.NaN()}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "x", Kind: table.KindDouble},
		table.ColumnDesc{Name: "g", Kind: table.KindInt},
	)
	b := table.NewBuilder(schema, n)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < n; i++ {
		x := table.DoubleValue(vals[rng.IntN(len(vals))])
		if rng.IntN(10) == 0 {
			x = table.MissingValue(table.KindDouble)
		}
		b.AppendRow(table.Row{x, table.IntValue(int64(rng.IntN(3)))})
	}
	return b.Freeze("nan")
}

// TestNextKNaNDeterministic checks that a NaN-bearing key gives one
// answer however the rows are scanned: the whole-table Summarize, the
// reference, and merges of per-chunk and per-partition Summarizes in
// several tree orders all agree, and NaN sorts after +Inf. Results are
// compared with Row.Equal, under which NaN equals NaN (reflect.DeepEqual
// would call every NaN-bearing result different).
func TestNextKNaNDeterministic(t *testing.T) {
	tbl := nanTable(3000)
	for _, sk := range []*NextKSketch{
		{Order: table.Asc("x"), Extra: []string{"g"}, K: 6},
		{Order: table.Desc("x"), Extra: []string{"g"}, K: 4},
		{Order: table.Asc("x"), K: 20},
		{Order: table.Asc("g").Then("x", false), K: 9},
		{Order: table.Asc("x"), Extra: []string{"g"}, K: 5, From: table.Row{table.DoubleValue(math.Inf(1))}},
		{Order: table.Desc("x"), K: 3, From: table.Row{table.DoubleValue(math.NaN())}},
	} {
		t.Run(sk.Name(), func(t *testing.T) {
			res, err := sk.Summarize(tbl)
			if err != nil {
				t.Fatal(err)
			}
			whole := res.(*NextKList)
			assertNextKEqual(t, whole, referenceNextK(t, tbl, sk))
			for _, n := range []int{2, 5, 11} {
				chunks := summarizeParts(t, sk, chunkViews(tbl, n))
				for trial := uint64(0); trial < 4; trial++ {
					got := mergeTree(t, sk, chunks, rand.New(rand.NewPCG(uint64(n), trial)))
					assertNextKEqual(t, got.(*NextKList), whole)
				}
			}
			parts := summarizeParts(t, sk, splitTable(tbl, 7))
			assertNextKEqual(t, mergeTree(t, sk, parts, rand.New(rand.NewPCG(7, 8))).(*NextKList), whole)
		})
	}
	l, err := (&NextKSketch{Order: table.Asc("x"), K: 20}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows := l.(*NextKList).Rows
	if n := len(rows); n != 7 || !math.IsNaN(rows[n-1][0].D) || !math.IsInf(rows[n-2][0].D, 1) {
		t.Errorf("ascending distinct keys = %v, want missing, -Inf, 0, 1, 2.5, +Inf, NaN", rows)
	}
}

// TestNextKAllocsIndependentOfRows shows the kernel allocates O(K), not
// O(rows): summarizing 10k and 200k rows costs the same allocations.
func TestNextKAllocsIndependentOfRows(t *testing.T) {
	small, large := genTable("nka-s", 10_000, 41), genTable("nka-l", 200_000, 41)
	for _, sk := range []*NextKSketch{
		{Order: table.Asc("x"), Extra: []string{"cat", "id"}, K: 30},
		{Order: table.Desc("cat"), Extra: []string{"x"}, K: 30},
		{Order: table.Asc("x"), Extra: []string{"id"}, K: 30, From: table.Row{table.DoubleValue(50)}},
	} {
		allocs := func(tbl *table.Table) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := sk.Summarize(tbl); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		if a != b || b > 40 {
			t.Errorf("%s: %v allocs at 10k rows, %v at 200k; want equal and O(K)", sk.Name(), a, b)
		}
	}
}
