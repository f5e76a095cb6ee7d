package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
	"repro/internal/table"
)

// memSource serves dense in-memory tables through the LeafSource
// contract, counting acquires/releases and recording which columns
// were requested.
type memSource struct {
	parts []*table.Table

	mu        sync.Mutex
	acquires  int
	releases  int
	live      int32 // current pins, for max tracking
	maxLive   int32
	requested map[string]bool
	failAt    int // partition index whose Acquire fails (-1 = never)
	failErr   error
}

func newMemSource(parts []*table.Table) *memSource {
	return &memSource{parts: parts, requested: map[string]bool{}, failAt: -1}
}

func (s *memSource) Leaves() []LeafMeta {
	out := make([]LeafMeta, len(s.parts))
	for i, p := range s.parts {
		out[i] = LeafMeta{ID: p.ID(), Lo: 0, Hi: p.NumRows(), Bound: p.Members().Max()}
	}
	return out
}

func (s *memSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	s.mu.Lock()
	s.acquires++
	if s.failAt == i {
		s.mu.Unlock()
		return nil, nil, s.failErr
	}
	for _, c := range cols {
		s.requested[c] = true
	}
	s.mu.Unlock()
	n := atomic.AddInt32(&s.live, 1)
	for {
		old := atomic.LoadInt32(&s.maxLive)
		if n <= old || atomic.CompareAndSwapInt32(&s.maxLive, old, n) {
			break
		}
	}
	t := s.parts[i]
	if cols != nil {
		keep := make([]string, 0, len(cols))
		for _, c := range cols {
			if t.Schema().ColumnIndex(c) >= 0 {
				keep = append(keep, c)
			}
		}
		var err error
		t, err = t.Project(t.ID(), keep)
		if err != nil {
			return nil, nil, err
		}
	}
	var once sync.Once
	return t, func() {
		once.Do(func() {
			atomic.AddInt32(&s.live, -1)
			s.mu.Lock()
			s.releases++
			s.mu.Unlock()
		})
	}, nil
}

// sourceParts builds dense partitions with int and string columns.
func sourceParts(t *testing.T, n, rows int) []*table.Table {
	t.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "v", Kind: table.KindInt},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
	)
	parts := make([]*table.Table, n)
	for p := 0; p < n; p++ {
		b := table.NewBuilder(schema, rows)
		for i := 0; i < rows; i++ {
			b.AppendRow(table.Row{
				table.IntValue(int64(p*rows+i) % 41),
				table.StringValue([]string{"x", "y", "z"}[(p+i)%3]),
			})
		}
		parts[p] = b.Freeze("src-p" + string(rune('0'+p)))
	}
	return parts
}

// TestLazySourceMatchesEager pins the core contract: a lazy dataset
// over a LeafSource produces bit-identical results to an eager dataset
// over the same partition tables, chunked or not, with pins fully
// released and the working set bounded by the worker pool.
func TestLazySourceMatchesEager(t *testing.T) {
	parts := sourceParts(t, 4, 3000)
	for _, chunk := range []int{-1, 700} {
		cfg := Config{Parallelism: 3, AggregationWindow: -1, ChunkRows: chunk}
		src := newMemSource(parts)
		lazy := NewLocalSource("l", src, cfg)
		eager := NewLocal("l", parts, cfg)
		sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}

		want, err := eager.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunk=%d: lazy %+v != eager %+v", chunk, got, want)
		}
		src.mu.Lock()
		acq, rel, req := src.acquires, src.releases, src.requested
		src.mu.Unlock()
		if acq == 0 || acq != rel {
			t.Fatalf("chunk=%d: %d acquires, %d releases", chunk, acq, rel)
		}
		if !req["v"] || req["s"] {
			t.Fatalf("chunk=%d: requested columns %v, want exactly {v}", chunk, req)
		}
		if max := atomic.LoadInt32(&src.maxLive); max > int32(cfg.Parallelism) {
			t.Fatalf("chunk=%d: %d partitions pinned at once, parallelism %d", chunk, max, cfg.Parallelism)
		}
	}
}

// TestLazySourceTotalsAndMeta checks metadata-only accessors and the
// whole-partition (MetaSketch) path, which must see the full schema.
func TestLazySourceTotalsAndMeta(t *testing.T) {
	parts := sourceParts(t, 3, 500)
	src := newMemSource(parts)
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1, ChunkRows: 100})
	if lazy.NumLeaves() != 3 || lazy.TotalRows() != 1500 {
		t.Fatalf("leaves %d rows %d", lazy.NumLeaves(), lazy.TotalRows())
	}
	res, err := lazy.Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := res.(*sketch.TableMeta)
	if meta.Rows != 1500 || meta.Leaves != 3 || meta.Schema.NumColumns() != 2 {
		t.Fatalf("meta %+v", meta)
	}
}

// TestLazySourceErrorPropagates checks an Acquire failure surfaces as
// the sketch error (the soft-state signal the root reacts to).
func TestLazySourceErrorPropagates(t *testing.T) {
	parts := sourceParts(t, 3, 400)
	src := newMemSource(parts)
	src.failAt = 1
	src.failErr = ErrMissingDataset
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1})
	sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}
	_, err := lazy.Sketch(context.Background(), sk, nil)
	if !errors.Is(err, ErrMissingDataset) {
		t.Fatalf("got %v, want ErrMissingDataset", err)
	}
}

// TestLazySourceMap derives an eager dataset from a lazy one and keeps
// querying it after all pins are released.
func TestLazySourceMap(t *testing.T) {
	parts := sourceParts(t, 3, 600)
	src := newMemSource(parts)
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1})
	derived, err := lazy.Map(FilterOp{Predicate: `v < 10`}, "f")
	if err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	if src.acquires != 3 || src.releases != 3 {
		t.Fatalf("map pins: %d acquires, %d releases", src.acquires, src.releases)
	}
	src.mu.Unlock()
	sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}
	got, err := derived.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	eager := NewLocal("l", parts, Config{AggregationWindow: -1})
	ederived, err := eager.Map(FilterOp{Predicate: `v < 10`}, "f")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ederived.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("derived lazy %+v != eager %+v", got, want)
	}
}
