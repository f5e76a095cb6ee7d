package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/table"
)

// Answer is one request's result, normalized so that an HTTP response
// of the binary, a result of the traced replay and the in-process
// reference compare field by field.
type Answer struct {
	Rows    int64 // view rows (meta), derived rows (filterhist filter step)
	Columns int   // schema width (meta)

	TableRows [][]string // table
	Counts    []int64    // table row counts, histogram or heat-map tallies
	Total     int64      // table: member rows scanned

	Missing int64           // histogram
	Rate    float64         // histogram, heat map
	Buckets json.RawMessage // histogram bucket spec; heat-map X spec
	YSpec   json.RawMessage // heat-map Y spec
	CDF     []float64       // histogram with cdf

	HH []hhItem // heavy hitters

	Bytes int // HTTP response body bytes
}

type hhItem struct {
	Value string `json:"value"`
	Count int64  `json:"count"`
}

// parseAnswer decodes the body of an HTTP response for r. Histograms
// stream NDJSON partials; the last line is the final result.
func parseAnswer(r Request, body []byte) (Answer, error) {
	a := Answer{Bytes: len(body)}
	var err error
	switch r.Kind {
	case "table":
		var v struct {
			Rows   [][]string `json:"rows"`
			Counts []int64    `json:"counts"`
			Total  int64      `json:"total"`
		}
		err = json.Unmarshal(body, &v)
		a.TableRows, a.Counts, a.Total = v.Rows, v.Counts, v.Total
	case "histogram", "filterhist":
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		var v struct {
			Partial bool            `json:"partial"`
			Counts  []int64         `json:"counts"`
			Missing int64           `json:"missing"`
			Rate    float64         `json:"rate"`
			Buckets json.RawMessage `json:"buckets"`
			CDF     []float64       `json:"cdf"`
		}
		if err = json.Unmarshal(lines[len(lines)-1], &v); err == nil && v.Partial {
			err = fmt.Errorf("histogram stream ended on a partial")
		}
		a.Counts, a.Missing, a.Rate, a.Buckets, a.CDF = v.Counts, v.Missing, v.Rate, v.Buckets, v.CDF
	case "heatmap":
		var v struct {
			X, Y   json.RawMessage
			Counts []int64 `json:"counts"`
			Rate   float64 `json:"rate"`
		}
		err = json.Unmarshal(body, &v)
		a.Buckets, a.YSpec, a.Counts, a.Rate = v.X, v.Y, v.Counts, v.Rate
	case "heavyhitters":
		err = json.Unmarshal(body, &a.HH)
	case "meta":
		var v struct {
			Rows   int64             `json:"rows"`
			Schema []json.RawMessage `json:"schema"`
		}
		err = json.Unmarshal(body, &v)
		a.Rows, a.Columns = v.Rows, len(v.Schema)
	}
	if err != nil {
		return a, fmt.Errorf("%s: decoding response: %v", r.Class, err)
	}
	return a, nil
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // bucket specs are plain data
	}
	return b
}

// Answer constructors for in-process results (traced replay and
// reference), mirroring what cmd/hillview's handlers encode.

func tableAnswer(l *sketch.NextKList) Answer {
	rows := make([][]string, len(l.Rows))
	for i, row := range l.Rows {
		rows[i] = make([]string, len(row))
		for c, v := range row {
			rows[i][c] = v.String()
		}
	}
	return Answer{TableRows: rows, Counts: l.Counts, Total: l.Total}
}

func histAnswer(hv *spreadsheet.HistogramView) Answer {
	a := Answer{Counts: hv.Hist.Counts, Missing: hv.Hist.Missing, Rate: hv.Hist.SampleRate, Buckets: mustJSON(hv.Buckets)}
	if hv.CDF != nil {
		a.CDF = hv.CDF.CDF()
	}
	return a
}

func heatAnswer(h *spreadsheet.Histogram2DView) Answer {
	return Answer{Buckets: mustJSON(h.Result.X), YSpec: mustJSON(h.Result.Y), Counts: h.Result.Counts, Rate: h.Result.SampleRate}
}

func hhAnswer(items []sketch.HHItem) Answer {
	a := Answer{HH: make([]hhItem, len(items))}
	for i, it := range items {
		a.HH[i] = hhItem{Value: it.Value.String(), Count: it.Count}
	}
	return a
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// slack is the allowed deviation of a Binomial(n, rate) draw from its
// mean: six standard deviations plus a small-count floor, the bound the
// sketch package's oracle contracts state for sampled tallies.
func slack(n int64, rate float64) float64 {
	return 6*math.Sqrt(math.Max(float64(n), 1)*rate*(1-rate)) + 8
}

func binomialOK(got, truth int64, rate float64) bool {
	return math.Abs(float64(got)-rate*float64(truth)) <= slack(truth, rate)
}

// rowCheck is what a query may see of its view's row count: a sealed
// count in [lo, hi] on the seal grid base + k·step. A static view has
// lo = hi = its rows.
type rowCheck struct{ lo, hi, base, step int64 }

func staticRows(n int64) rowCheck { return rowCheck{lo: n, hi: n, base: n, step: 1} }

func (c rowCheck) ok(n int64) bool { return n >= c.lo && n <= c.hi && (n-c.base)%c.step == 0 }

// checkCheap applies the invariants a timed request can afford: the
// answer is well-formed and its tallies add up to the view's row count.
func checkCheap(r Request, a Answer, rc rowCheck) error {
	rows, rowsOK := rc.hi, rc.ok
	switch r.Kind {
	case "table":
		if len(a.TableRows) > r.K || len(a.TableRows) != len(a.Counts) {
			return fmt.Errorf("%s: %d rows, %d counts for k=%d", r.Class, len(a.TableRows), len(a.Counts), r.K)
		}
		if !rowsOK(a.Total) || sum(a.Counts) > a.Total {
			return fmt.Errorf("%s: table total %d, counts sum %d", r.Class, a.Total, sum(a.Counts))
		}
	case "histogram", "filterhist":
		n := sum(a.Counts) + a.Missing
		base := rows
		if r.Kind == "filterhist" {
			base = a.Rows
		}
		switch {
		case isString(r.Col):
			// String buckets come from a bottom-k sample; values outside
			// the sampled bounds are not tallied.
			if n <= 0 {
				return fmt.Errorf("%s: empty string histogram", r.Class)
			}
		case r.Exact:
			// A histogram whose range phase and counting phase straddle a
			// seal uses the old range: rows sealed in between that fall
			// outside it are out of range, and the response does not
			// report out-of-range rows. So off the seal grid is accepted
			// only when a seal overlapped the query.
			if !rowsOK(n) && (rc.hi == rc.lo || n < rc.lo || n > rc.hi) {
				return fmt.Errorf("%s: counts + missing = %d, not the view's row count", r.Class, n)
			}
		case !binomialOK(n, base, a.Rate):
			return fmt.Errorf("%s: sampled tallies %d, want ≈%g·%d", r.Class, n, a.Rate, base)
		}
		for i := 1; i < len(a.CDF); i++ {
			if a.CDF[i] < a.CDF[i-1] {
				return fmt.Errorf("%s: cdf decreases at %d", r.Class, i)
			}
		}
	case "heatmap":
		if len(a.Counts) == 0 || sum(a.Counts) <= 0 {
			return fmt.Errorf("%s: empty heat map", r.Class)
		}
	case "heavyhitters":
		// Hitters applies a frequency threshold, so an empty list is valid.
		if len(a.HH) > r.K {
			return fmt.Errorf("%s: %d heavy hitters for k=%d", r.Class, len(a.HH), r.K)
		}
		for i, it := range a.HH {
			if it.Count <= 0 || (i > 0 && it.Count > a.HH[i-1].Count) {
				return fmt.Errorf("%s: heavy hitters not positive and descending", r.Class)
			}
		}
	case "meta":
		if !rowsOK(a.Rows) {
			return fmt.Errorf("%s: meta reports %d rows", r.Class, a.Rows)
		}
	}
	return nil
}

func isString(col string) bool {
	for _, c := range stringCols {
		if c == col {
			return true
		}
	}
	return false
}

// Expected is the reference's ground truth for one request shape.
type Expected struct {
	Answer             // exact answer (histograms and heat maps unsampled)
	Rate       float64 // sampling rate the binary must report (0 = exact request)
	CDFRate    float64
	Present    int64            // non-missing rows of a histogram column
	Values     map[string]int64 // exact per-value counts (heavy hitters)
	ScanRows   int64            // rows a heavy-hitters sketch scans
	FilterRows int64            // filterhist: rows of the derived view
}

// checkFull compares a warm-up answer with the reference. Deterministic
// answers must be identical; sampled ones must sit within the binomial
// bound of the exact truth; Misra–Gries heavy hitters within N/(K+1).
func checkFull(r Request, got Answer, want Expected) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s %s: "+format, append([]any{r.Class, r.Shape()}, args...)...)
	}
	switch r.Kind {
	case "meta":
		if got.Rows != want.Rows || got.Columns != want.Columns {
			return fail("meta %d rows × %d columns, want %d × %d", got.Rows, got.Columns, want.Rows, want.Columns)
		}
	case "table":
		if !reflect.DeepEqual(got.TableRows, want.TableRows) || !reflect.DeepEqual(got.Counts, want.Counts) || got.Total != want.Total {
			return fail("table page differs from the reference")
		}
	case "histogram", "filterhist":
		if r.Kind == "filterhist" && got.Rows != want.FilterRows {
			return fail("filter kept %d rows, want %d", got.Rows, want.FilterRows)
		}
		if !jsonEqual(got.Buckets, want.Buckets) {
			return fail("bucket spec %s, want %s", got.Buckets, want.Buckets)
		}
		if err := checkTallies(got.Counts, got.Missing, got.Rate, want.Counts, want.Missing, want.Rate); err != nil {
			return fail("%v", err)
		}
		if r.CDF != (got.CDF != nil) || len(got.CDF) != len(want.CDF) {
			return fail("cdf of %d points, want %d", len(got.CDF), len(want.CDF))
		}
		tol := 1e-9
		if want.CDFRate < 1 {
			m := want.CDFRate * float64(want.Present)
			tol = 6*math.Sqrt(0.25/m) + 8/m
		}
		for i := range got.CDF {
			if math.Abs(got.CDF[i]-want.CDF[i]) > tol {
				return fail("cdf point %d = %g, exact %g (tolerance %g)", i, got.CDF[i], want.CDF[i], tol)
			}
		}
	case "heatmap":
		if !jsonEqual(got.Buckets, want.Buckets) || !jsonEqual(got.YSpec, want.YSpec) {
			return fail("heat-map axes differ from the reference")
		}
		if err := checkTallies(got.Counts, 0, got.Rate, want.Counts, 0, want.Rate); err != nil {
			return fail("%v", err)
		}
	case "heavyhitters":
		n := want.ScanRows
		for _, it := range got.HH {
			truth, ok := want.Values[it.Value]
			switch {
			case !ok:
				return fail("heavy hitter %q does not occur in the data", it.Value)
			case it.Count > truth:
				return fail("heavy hitter %q counted %d, occurs %d times", it.Value, it.Count, truth)
			case r.Sampled && !binomialOK(it.Count, truth, want.Rate):
				return fail("heavy hitter %q sampled %d, want ≈%g·%d", it.Value, it.Count, want.Rate, truth)
			case !r.Sampled && truth-it.Count > n/int64(r.K+1)+1:
				return fail("heavy hitter %q counted %d, short of %d by more than N/(K+1)", it.Value, it.Count, truth)
			}
		}
		if !r.Sampled {
			listed := map[string]bool{}
			for _, it := range got.HH {
				listed[it.Value] = true
			}
			for v, truth := range want.Values {
				if truth > n/int64(r.K) && !listed[v] {
					return fail("value %q occurs %d > N/K times but is not listed", v, truth)
				}
			}
		}
	}
	return nil
}

// checkTallies compares sampled (or exact, at rate 1) tallies with the
// exact truth at the rate the reference computed.
func checkTallies(got []int64, gotMissing int64, gotRate float64, truth []int64, truthMissing int64, rate float64) error {
	if len(got) != len(truth) {
		return fmt.Errorf("%d buckets, want %d", len(got), len(truth))
	}
	if rate >= 1 || rate == 0 {
		if gotRate != 0 && gotRate != 1 {
			return fmt.Errorf("sampled at %g, want exact", gotRate)
		}
		if !reflect.DeepEqual(got, truth) || gotMissing != truthMissing {
			return fmt.Errorf("exact tallies differ from the reference")
		}
		return nil
	}
	if gotRate != rate {
		return fmt.Errorf("sample rate %g, want %g", gotRate, rate)
	}
	if !binomialOK(gotMissing, truthMissing, rate) {
		return fmt.Errorf("missing %d, want ≈%g·%d", gotMissing, rate, truthMissing)
	}
	for i := range truth {
		if !binomialOK(got[i], truth[i], rate) {
			return fmt.Errorf("bucket %d = %d, want ≈%g·%d", i, got[i], rate, truth[i])
		}
	}
	return nil
}

func jsonEqual(a, b json.RawMessage) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return reflect.DeepEqual(x, y)
}

// valueCounts is the exact per-value count of col over parts.
func valueCounts(parts []*table.Table, col string) (map[string]int64, int64, error) {
	out := map[string]int64{}
	var n int64
	for _, t := range parts {
		c, err := t.Column(col)
		if err != nil {
			return nil, 0, err
		}
		t.Members().Iterate(func(row int) bool {
			out[c.Value(row).String()]++
			n++
			return true
		})
	}
	return out, n, nil
}
