package sketch

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// NextKList is the summary behind the spreadsheet's tabular view (paper
// §4.3 "Next items"): the K distinct rows that follow a start row in the
// sort order, with duplicate rows aggregated into counts (paper §3.3),
// plus enough position information to draw the scroll bar.
type NextKList struct {
	Order table.RecordOrder
	// Rows are the materialized result rows, sorted by Order, laid out
	// as [order columns..., extra columns...].
	Rows []table.Row
	// Counts[i] is the number of duplicates of Rows[i].
	Counts []int64
	// Before counts member rows at or before the start row in the sort
	// order (the view's absolute position).
	Before int64
	// Total counts all member rows scanned.
	Total int64
	K     int
}

// NextKSketch computes a NextKList. From is the exclusive start row,
// containing values for the order columns only (nil starts at the
// beginning). The summarize function keeps a bounded ordered set; the
// merge function merges two sorted lists and truncates (paper §4.3).
//
// Summarize's window holds physical row indexes, not rows: candidates
// rank through the table's typed column comparisons
// (table.PhysicalOrder), a full window rejects or counts most rows with
// one comparison against its last entry, and only the at most K
// surviving rows are materialized, after the scan.
type NextKSketch struct {
	Order table.RecordOrder
	// Extra lists display columns beyond the sort columns.
	Extra []string
	K     int
	From  table.Row
}

// Name implements Sketch.
func (s *NextKSketch) Name() string {
	return fmt.Sprintf("nextk(%s,+%v,k=%d,from=%v)", s.Order, s.Extra, s.K, s.From)
}

// Zero implements Sketch.
func (s *NextKSketch) Zero() Result {
	return &NextKList{Order: s.Order, K: s.K}
}

// rowCmp compares result rows: the order-column prefix under the sort
// directions, then the remaining columns ascending as a deterministic
// tie-break so that equal-keyed distinct rows merge identically
// everywhere.
func (s *NextKSketch) rowCmp() func(a, b table.Row) int {
	prefix := s.Order.RowComparator()
	n := len(s.Order)
	return func(a, b table.Row) int {
		if c := prefix(a, b); c != 0 {
			return c
		}
		for i := n; i < len(a) && i < len(b); i++ {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// Summarize implements Sketch.
func (s *NextKSketch) Summarize(t *table.Table) (Result, error) {
	ord, err := s.Order.Comparator(t, s.Extra...)
	if err != nil {
		return nil, fmt.Errorf("sketch: nextk: %w", err)
	}
	var from func(row int) int
	if s.From != nil {
		from = ord.KeyComparator(s.From)
	}
	out := s.Zero().(*NextKList)
	// win holds the window's physical rows in sort order, counts their
	// duplicates.
	var win []int
	var counts []int64

	t.Members().Iterate(func(row int) bool {
		out.Total++
		if n := len(win); n > 0 && n >= s.K {
			// Full window: a row after its last entry is also after From.
			c := ord.Compare(row, win[n-1])
			if c > 0 {
				return true
			}
			if c == 0 {
				counts[n-1]++
				return true
			}
		}
		if from != nil && from(row) >= 0 {
			out.Before++
			return true
		}
		lo := sort.Search(len(win), func(m int) bool { return ord.Compare(win[m], row) >= 0 })
		if lo < len(win) && ord.Compare(win[lo], row) == 0 {
			counts[lo]++
			return true
		}
		if lo >= s.K {
			return true // beyond the window
		}
		if len(win) == s.K {
			win, counts = win[:len(win)-1], counts[:len(counts)-1]
		}
		win = append(win, 0)
		copy(win[lo+1:], win[lo:])
		win[lo] = row
		counts = append(counts, 0)
		copy(counts[lo+1:], counts[lo:])
		counts[lo] = 1
		return true
	})
	if len(win) > 0 {
		out.Rows = ord.Rows(win)
		out.Counts = counts
	}
	return out, nil
}

// Merge implements Sketch: a sorted-list merge with duplicate
// aggregation, truncated to K.
func (s *NextKSketch) Merge(a, b Result) (Result, error) {
	la, ok1 := a.(*NextKList)
	lb, ok2 := b.(*NextKList)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: nextk merge got %T and %T", a, b)
	}
	cmp := s.rowCmp()
	out := &NextKList{
		Order:  s.Order,
		K:      s.K,
		Before: la.Before + lb.Before,
		Total:  la.Total + lb.Total,
	}
	i, j := 0, 0
	for len(out.Rows) < s.K && (i < len(la.Rows) || j < len(lb.Rows)) {
		switch {
		case i >= len(la.Rows):
			out.Rows = append(out.Rows, lb.Rows[j])
			out.Counts = append(out.Counts, lb.Counts[j])
			j++
		case j >= len(lb.Rows):
			out.Rows = append(out.Rows, la.Rows[i])
			out.Counts = append(out.Counts, la.Counts[i])
			i++
		default:
			switch c := cmp(la.Rows[i], lb.Rows[j]); {
			case c < 0:
				out.Rows = append(out.Rows, la.Rows[i])
				out.Counts = append(out.Counts, la.Counts[i])
				i++
			case c > 0:
				out.Rows = append(out.Rows, lb.Rows[j])
				out.Counts = append(out.Counts, lb.Counts[j])
				j++
			default:
				out.Rows = append(out.Rows, la.Rows[i])
				out.Counts = append(out.Counts, la.Counts[i]+lb.Counts[j])
				i++
				j++
			}
		}
	}
	return out, nil
}
