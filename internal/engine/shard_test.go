package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// shardParts builds partitions whose physical row counts exceed the test
// chunk size, including filtered (bitmap/sparse membership) partitions.
// Data derives from the test's seedtest seed: deterministic by default,
// explorable via HILLVIEW_TEST_SEED, and logged on failure so any CI
// failure replays locally. Assertions in these tests are structural
// (task counts, ID schemes, equivalences), so they hold for every seed.
func shardParts(t *testing.T) []*table.Table {
	parts := genParts("sh", 3, 10000, seedtest.Seed(t))
	// A dense filtered partition (bitmap membership) and a sparse one.
	dense := parts[1].Filter("sh-p1/f", func(row int) bool {
		return parts[1].MustColumn("x").Double(row) < 80
	})
	sparse := parts[2].Filter("sh-p2/f", func(row int) bool {
		return row%40 == 0
	})
	return []*table.Table{parts[0], dense, sparse}
}

// TestShardedScanMatchesUnsharded proves that chunked leaf scans fold to
// the identical result for exact sketches, across membership shapes.
func TestShardedScanMatchesUnsharded(t *testing.T) {
	parts := shardParts(t)
	whole := NewLocal("w", parts, Config{AggregationWindow: -1, ChunkRows: -1})
	sharded := NewLocal("w", parts, Config{AggregationWindow: -1, ChunkRows: 512})
	sketches := []sketch.Sketch{
		histSketch(),
		&sketch.RangeSketch{Col: "x"},
		&sketch.DistinctCountSketch{Col: "g"},
		&sketch.CDFSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 40)},
		&sketch.Histogram2DSketch{
			XCol: "x", YCol: "g",
			X: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
			Y: sketch.StringBucketsFromBounds([]string{"even", "odd"}, true),
		},
	}
	for _, sk := range sketches {
		want, err := whole.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded scan differs from unsharded\n got %+v\nwant %+v", sk.Name(), got, want)
		}
	}
}

// TestShardedSampledDeterminism proves that randomized sketches stay
// replay-deterministic under sharding: per-chunk seeds derive from
// (seed, chunk start), so the same configuration reproduces the same
// result, and the total sample size stays consistent with the rate.
func TestShardedSampledDeterminism(t *testing.T) {
	parts := shardParts(t)
	ds := NewLocal("sd", parts, Config{AggregationWindow: -1, ChunkRows: 777})
	sk := &sketch.SampledHistogramSketch{
		Col:     "x",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
		Rate:    0.2,
		Seed:    42,
	}
	a, err := ds.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("sharded sampled sketch not deterministic across runs")
	}
	ha := a.(*sketch.Histogram)
	var members int64
	for _, p := range parts {
		members += int64(p.NumRows())
	}
	if ha.SampledRows < int64(float64(members)*0.15) || ha.SampledRows > int64(float64(members)*0.25) {
		t.Errorf("sampled %d of %d member rows, want ~20%%", ha.SampledRows, members)
	}
}

// TestShardedPartialAccounting checks that Done counts fully merged
// partitions (not chunks) and reaches Total exactly at the end.
func TestShardedPartialAccounting(t *testing.T) {
	parts := shardParts(t)
	ds := NewLocal("pa", parts, Config{AggregationWindow: 1, ChunkRows: 512})
	var partials []Partial
	final, err := ds.Sketch(context.Background(), histSketch(), func(p Partial) {
		partials = append(partials, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("nil result")
	}
	if len(partials) == 0 {
		t.Fatal("no partials emitted")
	}
	last := partials[len(partials)-1]
	if last.Done != len(parts) || last.Total != len(parts) {
		t.Errorf("final partial Done/Total = %d/%d, want %d/%d", last.Done, last.Total, len(parts), len(parts))
	}
	prev := -1
	completions := 0
	for _, p := range partials {
		if p.Done < prev {
			t.Errorf("Done regressed: %d after %d", p.Done, prev)
		}
		if p.Done > len(parts) {
			t.Errorf("Done = %d exceeds partition count %d", p.Done, len(parts))
		}
		if p.Done == p.Total {
			completions++
		}
		prev = p.Done
	}
	if completions != 1 {
		t.Errorf("got %d Done==Total partials, want exactly one (the final emit)", completions)
	}
}

// TestLeafTaskChunkIDs pins the chunk ID scheme ("<partition>#<start>")
// that per-chunk sampling seeds derive from.
func TestLeafTaskChunkIDs(t *testing.T) {
	parts := genParts("ct", 1, 2500, 3)
	ds := NewLocal("ct", parts, Config{ChunkRows: 1000})
	tasks := ds.leafTasks(histSketch())
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks, want 3", len(tasks))
	}
	wantIDs := []string{"ct-p0#0", "ct-p0#1000", "ct-p0#2000"}
	var rows int
	for i, tk := range tasks {
		if tk.t.ID() != wantIDs[i] {
			t.Errorf("task %d ID = %q, want %q", i, tk.t.ID(), wantIDs[i])
		}
		if tk.part != 0 {
			t.Errorf("task %d part = %d, want 0", i, tk.part)
		}
		rows += tk.t.NumRows()
	}
	if rows != 2500 {
		t.Errorf("chunks cover %d rows, want 2500", rows)
	}
	// Sharding disabled: one task per partition, original table.
	off := NewLocal("ct", parts, Config{ChunkRows: -1})
	if tasks := off.leafTasks(histSketch()); len(tasks) != 1 || tasks[0].t != parts[0] {
		t.Errorf("ChunkRows<0 should disable sharding, got %d tasks", len(tasks))
	}
}

// TestWholePartitionSketchNotChunked checks that per-partition sketches
// (sketch.WholePartition) bypass chunking: MetaSketch.Leaves must count
// partitions, never chunks.
func TestWholePartitionSketchNotChunked(t *testing.T) {
	parts := genParts("wp", 2, 3000, 5)
	ds := NewLocal("wp", parts, Config{AggregationWindow: -1, ChunkRows: 500})
	r, err := ds.Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.(*sketch.TableMeta)
	if meta.Leaves != 2 {
		t.Errorf("MetaSketch Leaves = %d under chunking, want 2", meta.Leaves)
	}
	if meta.Rows != 6000 {
		t.Errorf("MetaSketch Rows = %d, want 6000", meta.Rows)
	}
}

// TestLeafTasksSkipEmptyChunks checks that chunk ranges holding no
// member rows (popcount over the membership bitset range) are dropped
// before dispatch, without changing the summary: a clustered filter
// over a large physical space dispatches only the occupied ranges.
func TestLeafTasksSkipEmptyChunks(t *testing.T) {
	parts := genParts("ec", 1, 10000, 13)
	// Members cluster in [0, 1000) ∪ [9000, 10000): 2000 of 10000
	// physical rows, a dense bitmap membership.
	f := parts[0].Filter("ec-f", func(row int) bool { return row < 1000 || row >= 9000 })
	ds := NewLocal("ec", []*table.Table{f}, Config{AggregationWindow: -1, ChunkRows: 500})
	tasks := ds.leafTasks(histSketch())
	if len(tasks) != 4 {
		t.Errorf("got %d tasks, want 4 (only occupied 500-row ranges)", len(tasks))
	}
	var members int
	for _, tk := range tasks {
		members += tk.t.NumRows()
	}
	if members != 2000 {
		t.Errorf("tasks cover %d member rows, want 2000", members)
	}
	whole := NewLocal("ec", []*table.Table{f}, Config{AggregationWindow: -1, ChunkRows: -1})
	want, err := whole.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("skipping empty chunks changed the summary")
	}
}

// TestShardedHeavyHittersGuarantee runs Misra–Gries through the chunked
// engine path (per-worker accumulators, merge tree) and checks the
// frequency guarantee against exact counts. Counter values may vary
// with the dynamic chunk-to-worker assignment; the guarantee may not.
func TestShardedHeavyHittersGuarantee(t *testing.T) {
	const rows = 12000
	const k = 8
	vals := make([]string, 26)
	for i := range vals {
		vals[i] = "t-" + string(rune('a'+i))
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	truth := map[string]int64{}
	var parts []*table.Table
	for p := 0; p < 3; p++ {
		b := table.NewBuilder(schema, rows/3)
		for i := 0; i < rows/3; i++ {
			var v string
			switch {
			case i%10 < 4:
				v = "v0"
			case i%10 < 6:
				v = "v1"
			default:
				v = vals[(i*7+p)%len(vals)]
			}
			truth[v]++
			b.AppendRow(table.Row{table.StringValue(v)})
		}
		parts = append(parts, b.Freeze(fmt.Sprintf("hh-p%d", p)))
	}
	ds := NewLocal("hh", parts, Config{AggregationWindow: -1, ChunkRows: 512})
	res, err := ds.Sketch(context.Background(), &sketch.MisraGriesSketch{Col: "s", K: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hh := res.(*sketch.HeavyHitters)
	if hh.ScannedRows != rows {
		t.Fatalf("ScannedRows = %d, want %d", hh.ScannedRows, rows)
	}
	if len(hh.Counters) > k {
		t.Fatalf("%d > K counters", len(hh.Counters))
	}
	errBound := int64(rows)/int64(k+1) + 1
	for v, c := range hh.Counters {
		tc := truth[v.S]
		if c > tc || tc-c > errBound {
			t.Errorf("count for %q = %d, truth %d, bound %d", v.S, c, tc, errBound)
		}
	}
	for _, want := range []string{"v0", "v1"} { // 40% and 20% > 1/(k+1)
		if _, ok := hh.Counters[table.StringValue(want)]; !ok {
			t.Errorf("heavy value %q lost in the sharded scan", want)
		}
	}
}

// TestSparsePartitionNotChunked checks that chunking keys off the
// member count, not the physical bound: a heavily filtered partition is
// one cheap scan, not dozens of near-empty ones.
func TestSparsePartitionNotChunked(t *testing.T) {
	parts := genParts("sp", 1, 5000, 7)
	filtered := parts[0].Filter("sp-p0/f", func(row int) bool { return row%100 == 0 })
	ds := NewLocal("sp", []*table.Table{filtered}, Config{ChunkRows: 500})
	if tasks := ds.leafTasks(histSketch()); len(tasks) != 1 {
		t.Errorf("sparse partition (50 members, 5000 physical) split into %d tasks, want 1", len(tasks))
	}
	// A dense partition over the same physical space still shards.
	ds2 := NewLocal("sp2", parts, Config{ChunkRows: 500})
	if tasks := ds2.leafTasks(histSketch()); len(tasks) != 10 {
		t.Errorf("dense partition split into %d tasks, want 10", len(tasks))
	}
}

// TestMisraGriesOneAnswer runs Misra–Gries, whose merge is
// order-sensitive, 50 times at several thread counts, with and without
// partial emission. The stripe merge shape depends only on the task
// list, so every run must return the same summary. 102 chunk tasks make
// stripes of more than one task.
func TestMisraGriesOneAnswer(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	var parts []*table.Table
	for p := 0; p < 6; p++ {
		b := table.NewBuilder(schema, 5000)
		for i := 0; i < 5000; i++ {
			// A skewed stream with a long tail of near-equal counts, so
			// the surviving tail counters depend on the merge order.
			v := (i*i + 7*p) % 97 % (1 + i%13)
			b.AppendRow(table.Row{table.StringValue(fmt.Sprintf("v%d", v))})
		}
		parts = append(parts, b.Freeze(fmt.Sprintf("mg-p%d", p)))
	}
	sk := &sketch.MisraGriesSketch{Col: "s", K: 6}
	var want sketch.Result
	for _, par := range []int{1, 2, 3, 4, 8} {
		for run := 0; run < 10; run++ {
			cfg := Config{Parallelism: par, AggregationWindow: -1, ChunkRows: 300}
			var onPartial PartialFunc
			if run%2 == 1 {
				cfg.AggregationWindow = time.Nanosecond
				onPartial = func(Partial) {}
			}
			ds := NewLocal("mg", parts, cfg)
			if n := len(ds.leafTasks(sk)); n != 102 {
				t.Fatalf("%d leaf tasks, want 102", n)
			}
			got, err := ds.Sketch(context.Background(), sk, onPartial)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallelism %d run %d: %+v, want %+v", par, run, got, want)
			}
		}
	}
}

// TestLeafStripes pins the stripe split: it covers the tasks in order,
// uses at most maxLeafStripes stripes, and puts the longer stripes
// first with lengths differing by at most one.
func TestLeafStripes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 90, 1000} {
		b := leafStripes(n)
		if want := min(n, maxLeafStripes); len(b) != want+1 {
			t.Fatalf("n=%d: %d stripes, want %d", n, len(b)-1, want)
		}
		if b[0] != 0 || b[len(b)-1] != n {
			t.Fatalf("n=%d: bounds %v do not cover [0, %d)", n, b, n)
		}
		for s := 1; s < len(b); s++ {
			size := b[s] - b[s-1]
			if size < 1 || size > (n+len(b)-2)/(len(b)-1) {
				t.Fatalf("n=%d: stripe %d has %d tasks (bounds %v)", n, s-1, size, b)
			}
			if s > 1 && size > b[s-1]-b[s-2] {
				t.Fatalf("n=%d: stripe %d is longer than the one before it (bounds %v)", n, s-1, b)
			}
		}
	}
}
