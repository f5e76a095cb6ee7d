package repro_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/baseline/rowdb"
	"repro/internal/baseline/sparklike"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// The benchmarks below regenerate each evaluation artifact of the paper
// at test scale; cmd/hillview-bench runs the same code at configurable
// scale and prints the paper-style tables.
//
//	Figure 5  → BenchmarkFig5Ops       (per-op latency, both systems)
//	Figure 6  → BenchmarkFig6Cold      (cold-start op latency)
//	§7.2.1    → BenchmarkMicro         (single-thread histogram 3 ways)
//	Figure 7  → BenchmarkFig7Leaves    (leaf scaling)
//	Figure 8  → BenchmarkFig8Servers   (server scaling)
//	Figure 11 → BenchmarkFig11Case     (case-study scripts)

var (
	fig5Once sync.Once
	fig5Env  *bench.HVEnv
	fig5View *spreadsheet.View
	fig5Err  error
)

func benchParams() bench.Params {
	p := bench.DefaultParams()
	p.BaseRows = 50000
	p.Cols = 30
	p.Workers = 2
	p.PartsPerWorker = 4
	return p
}

func fig5Setup(b *testing.B) (*bench.HVEnv, *spreadsheet.View) {
	b.Helper()
	fig5Once.Do(func() {
		fig5Env, fig5Err = bench.StartHV(benchParams())
		if fig5Err != nil {
			return
		}
		fig5View, fig5Err = fig5Env.LoadScale(1)
	})
	if fig5Err != nil {
		b.Fatal(fig5Err)
	}
	return fig5Env, fig5View
}

// BenchmarkFig5Ops measures every Figure 4 operation on Hillview (over
// loopback workers) and on the Spark-like baseline (Figure 5 top).
func BenchmarkFig5Ops(b *testing.B) {
	env, view := fig5Setup(b)
	for _, op := range bench.Ops {
		b.Run("Hillview/"+op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Deterministic headline sketches (O7, O9) are cacheable;
				// invalidate so every iteration computes rather than
				// probing the cache.
				env.Sheet.Root().Cache().InvalidateDataset(view.ID())
				if err := op.Hillview(context.Background(), view, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	p := benchParams()
	parts := bench.GenScale(p, 1)
	eng := sparklike.New(p.Workers * p.WorkerParallelism)
	for _, op := range bench.Ops {
		b.Run("Spark/"+op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				senv := bench.NewSparkEnv(eng, parts)
				if err := op.Spark(senv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Cold measures a cold-start histogram: data evicted from
// every worker, reloaded from .hvc files as part of the operation
// (Figure 6).
func BenchmarkFig6Cold(b *testing.B) {
	p := benchParams()
	dir := b.TempDir()
	src, err := bench.WriteColdShards(p, 1, dir)
	if err != nil {
		b.Fatal(err)
	}
	env, err := bench.StartHV(p)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	view, err := env.Sheet.Load(context.Background(), "cold", src)
	if err != nil {
		b.Fatal(err)
	}
	op, err := bench.OpByName("O5")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env.DropData(1) // evict soft state everywhere
		env.Sheet.Root().Cache().InvalidateDataset("cold")
		b.StartTimer()
		if err := op.Hillview(context.Background(), view, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro is the §7.2.1 single-thread comparison: streaming
// vizketch vs sampled vizketch vs general-purpose row database.
func BenchmarkMicro(b *testing.B) {
	const rows = 1000000
	t := flights.Gen("bench-micro", rows, 1, flights.CoreColumns)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)

	b.Run("streaming", func(b *testing.B) {
		sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
		for i := 0; i < b.N; i++ {
			if _, err := sk.Summarize(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampling", func(b *testing.B) {
		rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rows)
		for i := 0; i < b.N; i++ {
			sk := &sketch.SampledHistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
			if _, err := sk.Summarize(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("database", func(b *testing.B) {
		// The row database holds boxed rows; load a tenth of the data
		// once and time only the query.
		small := flights.Gen("bench-db", rows/10, 1, flights.CoreColumns)
		db := rowdb.New()
		if err := db.LoadColumnar("flights", small, nil); err != nil {
			b.Fatal(err)
		}
		dbt, err := db.Table("flights")
		if err != nil {
			b.Fatal(err)
		}
		pos, err := dbt.ColPos("Distance")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Execute(rowdb.Query{
				Table:   "flights",
				GroupBy: rowdb.FloorDiv{X: rowdb.Col{Pos: pos}, Off: 0, Width: 120},
				Aggs:    []rowdb.Agg{{Kind: rowdb.AggCount}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows/10), "rows")
	})
}

// BenchmarkFig7Leaves measures histogram latency as leaves and shards
// grow together (Figure 7: flat streaming, super-linear sampling).
func BenchmarkFig7Leaves(b *testing.B) {
	const rowsPerLeaf = 50000
	for _, leaves := range []int{1, 4, 16} {
		parts := flights.GenPartitions(fmt.Sprintf("b7-%d", leaves), rowsPerLeaf*leaves, leaves, 1, flights.CoreColumns)
		ds := engine.NewLocal("b7", parts, engine.Config{Parallelism: leaves, AggregationWindow: -1})
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
		b.Run(fmt.Sprintf("streaming/leaves=%d", leaves), func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
			for i := 0; i < b.N; i++ {
				if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampled/leaves=%d", leaves), func(b *testing.B) {
			rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rowsPerLeaf*leaves)
			for i := 0; i < b.N; i++ {
				sk := &sketch.SampledHistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
				if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Servers measures histogram latency as worker servers and
// data grow together over loopback TCP (Figure 8).
func BenchmarkFig8Servers(b *testing.B) {
	for _, servers := range []int{1, 2, 4} {
		p := benchParams()
		p.Workers = servers
		p.WorkerParallelism = 2
		env, err := bench.StartHV(p)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("b8-%d", servers)
		src := fmt.Sprintf("flights:rows=100000,parts=8,cols=20,seed=%d00{worker}", p.Seed)
		if _, err := env.Sheet.Load(context.Background(), name, src); err != nil {
			env.Close()
			b.Fatal(err)
		}
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
		b.Run(fmt.Sprintf("streaming/servers=%d", servers), func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
			for i := 0; i < b.N; i++ {
				env.Sheet.Root().Cache().InvalidateDataset(name) // cacheable sketch
				if _, err := env.Sheet.Root().RunSketch(context.Background(), name, sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampled/servers=%d", servers), func(b *testing.B) {
			rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), 100000*servers)
			for i := 0; i < b.N; i++ {
				sk := &sketch.SampledHistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
				if _, err := env.Sheet.Root().RunSketch(context.Background(), name, sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		env.Close()
	}
}

// --- Kernel micro-benchmarks -------------------------------------------
//
// The benchmarks below isolate the leaf scan kernels (span iteration,
// batch bucket indexing, typed column access) that every sketch runs on;
// BENCH_kernels.json records before/after numbers for the vectorized
// rewrite. Data is synthesized directly into columnar storage so the
// numbers measure the scan, not the generator.

// kernelTable builds a table with one int, one double, and one string
// column of deterministic values (no missing cells unless withMissing).
func kernelTable(id string, rows int, withMissing bool) *table.Table {
	ints := make([]int64, rows)
	doubles := make([]float64, rows)
	strs := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		strs = append(strs, fmt.Sprintf("val-%02d", i))
	}
	codes := make([]string, rows)
	x := uint64(12345)
	for i := 0; i < rows; i++ {
		// SplitMix64-style mix keeps values deterministic and well spread.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		ints[i] = int64(z % 1000000)
		doubles[i] = float64(z%3000000) / 1000.0
		codes[i] = strs[z%64]
	}
	var miss *table.Bitset
	if withMissing {
		miss = table.NewBitset(rows)
		for i := 0; i < rows; i += 97 {
			miss.Set(i)
		}
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
	)
	cols := []table.Column{
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewStringColumn(codes, miss),
	}
	return table.New(id, schema, cols, table.FullMembership(rows))
}

// kernelMembers returns the table restricted to the named membership
// shape: "full" keeps all rows, "sparse" keeps ~1% as a sorted list.
func kernelMembers(t *table.Table, shape string) *table.Table {
	if shape == "full" {
		return t
	}
	max := t.Members().Max()
	var rows []int32
	for i := 0; i < max; i += 101 {
		rows = append(rows, int32(i))
	}
	return table.New(t.ID()+"-sparse", t.Schema(), []table.Column{
		t.MustColumn("i"), t.MustColumn("d"), t.MustColumn("s"),
	}, table.NewSparseMembership(rows, max))
}

func reportRows(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkKernelHistExact is the headline kernel: an exact histogram
// over an int column (ISSUE 1 acceptance: ≥2× over the seed per-row
// path at 10M rows, full membership).
func BenchmarkKernelHistExact(b *testing.B) {
	for _, rows := range []int{1000000, 10000000} {
		t := kernelTable(fmt.Sprintf("kh-%d", rows), rows, false)
		for _, shape := range []string{"full", "sparse"} {
			tt := kernelMembers(t, shape)
			spec := sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)
			sk := &sketch.HistogramSketch{Col: "i", Buckets: spec}
			b.Run(fmt.Sprintf("rows=%d/%s", rows, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sk.Summarize(tt); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b, tt.NumRows())
			})
		}
	}
}

// BenchmarkKernelHistMissing measures the missing-mask overhead on the
// exact histogram (1 in 97 rows missing).
func BenchmarkKernelHistMissing(b *testing.B) {
	const rows = 1000000
	t := kernelTable("khm", rows, true)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 50)
	sk := &sketch.HistogramSketch{Col: "d", Buckets: spec}
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelHistSampled measures the sampled histogram scan.
func BenchmarkKernelHistSampled(b *testing.B) {
	const rows = 10000000
	t := kernelTable("khs", rows, false)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 50)
	for _, shape := range []string{"full", "sparse"} {
		tt := kernelMembers(t, shape)
		sk := &sketch.SampledHistogramSketch{Col: "d", Buckets: spec, Rate: 0.01, Seed: 42}
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(tt); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, tt.NumRows())
		})
	}
}

// BenchmarkKernelHeavyHitters measures Misra–Gries over a dictionary
// string column.
func BenchmarkKernelHeavyHitters(b *testing.B) {
	const rows = 1000000
	t := kernelTable("khh", rows, false)
	for _, shape := range []string{"full", "sparse"} {
		tt := kernelMembers(t, shape)
		sk := &sketch.MisraGriesSketch{Col: "s", K: 16}
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(tt); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, tt.NumRows())
		})
	}
}

// BenchmarkKernelHist2D measures the two-axis bucket kernel.
func BenchmarkKernelHist2D(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kh2", rows, false)
	for _, shape := range []string{"full", "sparse"} {
		tt := kernelMembers(t, shape)
		sk := &sketch.Histogram2DSketch{
			XCol: "i", YCol: "d",
			X: sketch.NumericBuckets(table.KindInt, 0, 1000000, 25),
			Y: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20),
		}
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(tt); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, tt.NumRows())
		})
	}
}

// BenchmarkKernelRange measures the min/max scan kernel.
func BenchmarkKernelRange(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kr", rows, false)
	sk := &sketch.RangeSketch{Col: "d"}
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelDistinct measures the HyperLogLog scan kernel over the
// int column.
func BenchmarkKernelDistinct(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kd", rows, false)
	sk := &sketch.DistinctCountSketch{Col: "i"}
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelNextK measures the next-K leaf scan behind the tabular
// view over 250k flights rows, one worker's partition in the explore
// workload, with the sort shapes of Fig. 5's first three ops: O1 sorts
// by one double with two display columns, O2 by five doubles, O3 by one
// airport string with two display columns. Page is O1 scrolled to a
// start row in the middle of the order. Derived and DerivedPage sort by
// a column derived with an expression (ArrDelay - DepDelay), which is
// evaluated on every access instead of read from storage.
func BenchmarkKernelNextK(b *testing.B) {
	const rows = 250000
	t := flights.Gen("knk", rows, 1, flights.CoreColumns)
	gain, err := expr.DeriveColumn("ArrDelay - DepDelay", t)
	if err != nil {
		b.Fatal(err)
	}
	if t, err = t.WithColumn("knk-gain", "Gain", gain); err != nil {
		b.Fatal(err)
	}
	extra := []string{"Carrier", "Origin"}
	from := table.Row{table.DoubleValue(10)}
	shapes := []struct {
		name string
		sk   *sketch.NextKSketch
	}{
		{"O1", &sketch.NextKSketch{Order: table.Desc("ArrDelay"), Extra: extra, K: 25}},
		{"O2", &sketch.NextKSketch{Order: table.Asc("DepDelay").Then("ArrDelay", false).
			Then("TaxiOut", true).Then("AirTime", false).Then("Distance", true), K: 25}},
		{"O3", &sketch.NextKSketch{Order: table.Asc("Origin"), Extra: []string{"Dest", "Carrier"}, K: 25}},
		{"Page", &sketch.NextKSketch{Order: table.Desc("ArrDelay"), Extra: extra, K: 25, From: from}},
		{"Derived", &sketch.NextKSketch{Order: table.Desc("Gain"), Extra: extra, K: 25}},
		{"DerivedPage", &sketch.NextKSketch{Order: table.Desc("Gain"), Extra: extra, K: 25, From: from}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sh.sk.Summarize(t); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkKernelFilter measures the selection kernel behind explore's
// O6 (filter, then histogram + CDF): FilterOp.Apply over 250k flights
// rows, one worker's partition. Gt0, Gt15 and Gt27 are O6's cheapest,
// middle and most selective DepDelay thresholds; And adds a string
// equality, Abs a builtin call over derived arithmetic. Before timing,
// each shape's kept count is checked against a row loop over boxed
// column values.
func BenchmarkKernelFilter(b *testing.B) {
	const rows = 250000
	t := flights.Gen("kf", rows, 1, flights.CoreColumns)
	dep, arr, carrier := t.MustColumn("DepDelay"), t.MustColumn("ArrDelay"), t.MustColumn("Carrier")
	depGt := func(th float64) func(i int) bool {
		return func(i int) bool { v := dep.Value(i); return !v.Missing && v.D > th }
	}
	shapes := []struct {
		name, pred string
		want       func(i int) bool
	}{
		{"Gt0", "DepDelay > 0", depGt(0)},
		{"Gt15", "DepDelay > 15", depGt(15)},
		{"Gt27", "DepDelay > 27", depGt(27)},
		{"And", `DepDelay > 10 && Carrier == "UA"`, func(i int) bool {
			c := carrier.Value(i)
			return depGt(10)(i) && !c.Missing && c.S == "UA"
		}},
		{"Abs", "abs(ArrDelay - DepDelay) > 20", func(i int) bool {
			a, d := arr.Value(i), dep.Value(i)
			return !a.Missing && !d.Missing && math.Abs(a.D-d.D) > 20
		}},
	}
	for _, sh := range shapes {
		op := engine.FilterOp{Predicate: sh.pred}
		out, err := op.Apply(t, "kf-out")
		if err != nil {
			b.Fatal(err)
		}
		want := 0
		for i := 0; i < rows; i++ {
			if sh.want(i) {
				want++
			}
		}
		if out.NumRows() != want || want == 0 {
			b.Fatalf("%s keeps %d rows, want %d", sh.pred, out.NumRows(), want)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := op.Apply(t, "kf-out"); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkKernelShardedScan measures the engine-level sharded leaf
// scan: one 10M-row partition summarized as concurrent fixed-range
// chunks merged with the sketch's own Merge.
func BenchmarkKernelShardedScan(b *testing.B) {
	const rows = 10000000
	t := kernelTable("kss", rows, false)
	spec := sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)
	sk := &sketch.HistogramSketch{Col: "i", Buckets: spec}
	ds := engine.NewLocal("kss", []*table.Table{t}, engine.Config{AggregationWindow: -1})
	for i := 0; i < b.N; i++ {
		if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelParallelAgg measures the engine-level aggregation
// overhaul end to end: per-worker accumulators draining the chunk queue
// and combining in a pairwise merge tree, across the three summary
// shapes that stress it differently (dense tallies, a 2-D count matrix,
// and the code-keyed Misra–Gries state).
func BenchmarkKernelParallelAgg(b *testing.B) {
	const rows = 10000000
	t := kernelTable("kpa", rows, false)
	ds := engine.NewLocal("kpa", []*table.Table{t}, engine.Config{AggregationWindow: -1})
	sketches := []struct {
		name string
		sk   sketch.Sketch
	}{
		{"hist", &sketch.HistogramSketch{Col: "i", Buckets: sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)}},
		{"hist2d", &sketch.Histogram2DSketch{
			XCol: "i", YCol: "d",
			X: sketch.NumericBuckets(table.KindInt, 0, 1000000, 25),
			Y: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20),
		}},
		{"heavyhitters", &sketch.MisraGriesSketch{Col: "s", K: 16}},
	}
	for _, tc := range sketches {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.Sketch(context.Background(), tc.sk, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}

// BenchmarkFig11Case replays the case-study scripts (Figure 11 machine
// time).
func BenchmarkFig11Case(b *testing.B) {
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0))
	sheet := spreadsheet.New(root)
	view, err := sheet.Load(context.Background(), "fl", "flights:rows=50000,parts=4,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig11(view); err != nil {
			b.Fatal(err)
		}
	}
}
