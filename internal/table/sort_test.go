package table

import (
	"math"
	"testing"
)

// sortTestTable has one column per stored kind plus a computed column,
// each with missing cells, NaN and signed zeros in the double column,
// and strings whose dictionary leaves gaps for keys that do not occur.
func sortTestTable() *Table {
	ints := []int64{3, -1, 3, 7, 0, 3, -1, 9}
	doubles := []float64{1.5, math.NaN(), math.Inf(1), -0.0, 0, math.NaN(), math.Inf(-1), 1.5}
	strs := []string{"b", "d", "b", "f", "", "d", "h", "b"}
	dates := []int64{10, 20, 10, 5, 5, 30, 20, 10}
	miss := NewBitset(len(ints))
	miss.Set(4)
	miss.Set(6)
	schema := NewSchema(
		ColumnDesc{Name: "i", Kind: KindInt},
		ColumnDesc{Name: "d", Kind: KindDouble},
		ColumnDesc{Name: "s", Kind: KindString},
		ColumnDesc{Name: "t", Kind: KindDate},
	)
	tbl := New("sort", schema, []Column{
		NewIntColumn(KindInt, ints, miss),
		NewDoubleColumn(doubles, miss),
		NewStringColumn(strs, miss),
		NewIntColumn(KindDate, dates, miss),
	}, FullMembership(len(ints)))
	tbl, _ = tbl.WithColumn("sort", "c", NewComputedColumn(KindDouble, len(ints), func(i int) Value {
		if miss.Get(i) {
			return MissingValue(KindDouble)
		}
		return DoubleValue(doubles[i] / 2)
	}))
	return tbl
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestPhysicalOrderMatchesRowComparator checks that comparing physical
// rows agrees with comparing their materialized rows: RowComparator on
// the order prefix, ascending Value.Compare on the tie-break suffix.
func TestPhysicalOrderMatchesRowComparator(t *testing.T) {
	tbl := sortTestTable()
	orders := []struct {
		order RecordOrder
		extra []string
	}{
		{Asc("d"), []string{"i", "s"}},
		{Desc("s"), []string{"t"}},
		{Asc("c").Then("i", false), nil},
		{Desc("t").Then("d", true).Then("s", false), []string{"c"}},
	}
	for _, o := range orders {
		p, err := o.order.Comparator(tbl, o.extra...)
		if err != nil {
			t.Fatal(err)
		}
		n := tbl.NumRows()
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rows := p.Rows(idx)
		prefix := o.order.RowComparator()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := prefix(rows[i], rows[j])
				for k := len(o.order); want == 0 && k < len(rows[i]); k++ {
					want = rows[i][k].Compare(rows[j][k])
				}
				if got := p.Compare(i, j); sign(got) != sign(want) {
					t.Errorf("%v+%v: Compare(%d,%d) = %d, want %d", o.order, o.extra, i, j, got, want)
				}
			}
		}
	}
}

// TestKeyComparatorMatchesRowComparator checks the key-vs-row
// comparison against RowComparator over materialized prefixes, for keys
// taken from the rows, keys absent from the string dictionary, missing
// keys, and keys of another numeric kind.
func TestKeyComparatorMatchesRowComparator(t *testing.T) {
	tbl := sortTestTable()
	keys := []Row{
		{StringValue("a")}, {StringValue("c")}, {StringValue("z")}, {StringValue("b")},
		{MissingValue(KindString)},
	}
	for _, o := range []RecordOrder{Asc("s"), Desc("s")} {
		checkKeys(t, tbl, o, keys)
	}
	keys = []Row{
		{DoubleValue(math.NaN())}, {DoubleValue(math.Inf(1))}, {DoubleValue(-0.0)},
		{DoubleValue(1.5)}, {IntValue(1)}, {MissingValue(KindDouble)},
	}
	for _, o := range []RecordOrder{Asc("d"), Desc("d"), Asc("c"), Desc("c")} {
		checkKeys(t, tbl, o, keys)
	}
	keys = []Row{{IntValue(3), dateOf(10)}, {DoubleValue(2.5), MissingValue(KindDate)}, {IntValue(-5)}}
	for _, o := range []RecordOrder{Asc("i").Then("t", false), Desc("i").Then("t", true)} {
		checkKeys(t, tbl, o, keys)
	}
	// Keys drawn from every row, for a mixed-direction order.
	o := Desc("s").Then("d", true).Then("t", false)
	p, _ := o.Comparator(tbl)
	idx := make([]int, tbl.NumRows())
	for i := range idx {
		idx[i] = i
	}
	checkKeys(t, tbl, o, p.Rows(idx))
}

func dateOf(ms int64) Value { return Value{Kind: KindDate, I: ms} }

func checkKeys(t *testing.T, tbl *Table, o RecordOrder, keys []Row) {
	t.Helper()
	p, err := o.Comparator(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := o.RowComparator()
	for _, key := range keys {
		kc := p.KeyComparator(key)
		for i := 0; i < tbl.NumRows(); i++ {
			row := p.Rows([]int{i})[0]
			w := 0
			if len(key) == len(o) {
				w = want(key, row)
			} else {
				w = RecordOrder(o[:len(key)]).RowComparator()(key, row)
			}
			if got := kc(i); sign(got) != sign(w) {
				t.Errorf("%v: key %v vs row %d %v = %d, want %d", o, key, i, row, got, w)
			}
		}
	}
}

func TestComparatorUnknownColumn(t *testing.T) {
	tbl := sortTestTable()
	if _, err := Asc("i").Comparator(tbl, "nope"); err == nil {
		t.Error("unknown tie-break column should fail")
	}
}

// TestDoubleTotalOrder checks that doubles compare as a total order:
// NaN after +Inf and equal to NaN, -0 equal to +0, and the relation
// transitive over every triple.
func TestDoubleTotalOrder(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -1, -0.0, 0, 2, math.Inf(1), math.NaN()}
	col := NewDoubleColumn(vals, nil)
	nan, inf := 0, 6
	if cmpFloat(vals[nan], vals[inf]) != 1 || cmpFloat(vals[inf], vals[nan]) != -1 {
		t.Error("NaN should sort after +Inf")
	}
	if cmpFloat(vals[0], vals[7]) != 0 || cmpFloat(vals[3], vals[4]) != 0 {
		t.Error("NaN should equal NaN and -0 should equal +0")
	}
	for i := range vals {
		for j := range vals {
			c := col.Compare(i, j)
			if c != -col.Compare(j, i) {
				t.Errorf("Compare(%v,%v) not antisymmetric", vals[i], vals[j])
			}
			if v := DoubleValue(vals[i]).Compare(DoubleValue(vals[j])); v != c {
				t.Errorf("Value.Compare(%v,%v) = %d, column says %d", vals[i], vals[j], v, c)
			}
			for k := range vals {
				if c <= 0 && col.Compare(j, k) <= 0 && col.Compare(i, k) > 0 {
					t.Errorf("not transitive: %v <= %v <= %v", vals[i], vals[j], vals[k])
				}
			}
		}
	}
	if !(Row{DoubleValue(math.NaN())}).Equal(Row{DoubleValue(math.NaN())}) {
		t.Error("NaN rows should be equal")
	}
	if (Row{DoubleValue(math.NaN())}).Equal(Row{DoubleValue(1)}) {
		t.Error("NaN should not equal 1")
	}
}
