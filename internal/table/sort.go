package table

import (
	"fmt"
	"strings"
)

// ColumnSortOrder is one component of a multi-column sort: a column name
// and a direction.
type ColumnSortOrder struct {
	Column    string
	Ascending bool
}

// RecordOrder is a lexicographic multi-column sort order (paper §3.3:
// "Sort by a set of columns"). The zero-length order compares all rows
// equal.
type RecordOrder []ColumnSortOrder

// Asc builds a single-column ascending order.
func Asc(col string) RecordOrder { return RecordOrder{{Column: col, Ascending: true}} }

// Desc builds a single-column descending order.
func Desc(col string) RecordOrder { return RecordOrder{{Column: col, Ascending: false}} }

// Then appends another sort component.
func (o RecordOrder) Then(col string, ascending bool) RecordOrder {
	return append(append(RecordOrder{}, o...), ColumnSortOrder{Column: col, Ascending: ascending})
}

// Reversed returns the order with every direction flipped; paging
// backwards through a view is paging forwards through the reversed order.
func (o RecordOrder) Reversed() RecordOrder {
	out := make(RecordOrder, len(o))
	for i, c := range o {
		out[i] = ColumnSortOrder{Column: c.Column, Ascending: !c.Ascending}
	}
	return out
}

// Columns returns the column names in order.
func (o RecordOrder) Columns() []string {
	out := make([]string, len(o))
	for i, c := range o {
		out[i] = c.Column
	}
	return out
}

// String renders the order as "+col,-col".
func (o RecordOrder) String() string {
	parts := make([]string, len(o))
	for i, c := range o {
		sign := "+"
		if !c.Ascending {
			sign = "-"
		}
		parts[i] = sign + c.Column
	}
	return strings.Join(parts, ",")
}

// PhysicalOrder is a RecordOrder resolved against one table's columns,
// followed by tie-break columns compared ascending. It orders physical
// rows in place through the typed Column.Compare — int64s, float64s and
// dictionary codes — so a scan can rank rows without materializing
// them, and materializes only the rows it keeps.
type PhysicalOrder struct {
	cols []Column // order columns, then tie-break columns
	asc  []bool   // per order column; tie-breaks are ascending
}

// Comparator resolves the order against t, followed by the extra
// tie-break columns. Missing values sort first within each component
// (before reversal for descending components). The physical comparison
// agrees with RowComparator on the order prefix of rows materialized
// by Rows, and with ascending Value.Compare on the tie-break suffix.
func (o RecordOrder) Comparator(t *Table, extra ...string) (*PhysicalOrder, error) {
	p := &PhysicalOrder{asc: make([]bool, len(o))}
	for _, name := range append(o.Columns(), extra...) {
		col, err := t.Column(name)
		if err != nil {
			return nil, fmt.Errorf("sort order: %w", err)
		}
		p.cols = append(p.cols, col)
	}
	for k, c := range o {
		p.asc[k] = c.Ascending
	}
	return p, nil
}

// Compare orders physical rows i and j.
func (p *PhysicalOrder) Compare(i, j int) int {
	for k, col := range p.cols {
		if c := col.Compare(i, j); c != 0 {
			if k < len(p.asc) && !p.asc[k] {
				return -c
			}
			return c
		}
	}
	return 0
}

// KeyComparator binds key, a row holding values for the order columns
// only, and returns a function comparing key with physical row i: the
// sign of RowComparator(key, the row's materialized order prefix),
// computed without materializing the row. Components the key does not
// cover compare equal.
func (p *PhysicalOrder) KeyComparator(key Row) func(i int) int {
	n := min(len(key), len(p.asc))
	return func(i int) int {
		for k := 0; k < n; k++ {
			if c := key[k].Compare(p.cols[k].Value(i)); c != 0 {
				if !p.asc[k] {
					return -c
				}
				return c
			}
		}
		return 0
	}
}

// Rows materializes the physical rows idx in [order columns...,
// tie-break columns...] layout; the rows share one backing array.
func (p *PhysicalOrder) Rows(idx []int) []Row {
	w := len(p.cols)
	vals := make([]Value, len(idx)*w)
	out := make([]Row, len(idx))
	for r, i := range idx {
		row := vals[r*w : (r+1)*w : (r+1)*w]
		for k, col := range p.cols {
			row[k] = col.Value(i)
		}
		out[r] = row
	}
	return out
}

// RowComparator returns a comparator over materialized Rows laid out as
// [sort columns..., extra columns...], comparing only the first len(o)
// positions. Next-K summaries materialize rows in exactly this layout so
// merging at aggregation nodes needs no schema access.
func (o RecordOrder) RowComparator() func(a, b Row) int {
	n := len(o)
	asc := make([]bool, n)
	for k, c := range o {
		asc[k] = c.Ascending
	}
	return func(a, b Row) int {
		for k := 0; k < n; k++ {
			cmp := a[k].Compare(b[k])
			if cmp != 0 {
				if !asc[k] {
					return -cmp
				}
				return cmp
			}
		}
		return 0
	}
}
