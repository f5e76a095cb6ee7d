package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// dsRunner runs sketches against one real LocalDataSet, counting leaf
// passes; the count is the "one scan per batch" oracle.
type dsRunner struct {
	ds    *engine.LocalDataSet
	calls int64
	mu    sync.Mutex
}

func (r *dsRunner) RunSketch(ctx context.Context, _ string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	return r.ds.Sketch(ctx, sk, onPartial)
}

func (r *dsRunner) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// batchFixture builds a small real dataset plus K distinct cacheable
// sketches over it and their solo ground-truth results.
func batchFixture(t testing.TB, k int) (*dsRunner, []sketch.Sketch, []sketch.Result) {
	t.Helper()
	parts, info := table.GenPartitions("bt", 11, 1200, 3)
	ds := engine.NewLocal("d", parts, engine.Config{Parallelism: 2, AggregationWindow: -1, ChunkRows: 256})
	sks := make([]sketch.Sketch, k)
	want := make([]sketch.Result, k)
	for i := range sks {
		switch i % 3 {
		case 0:
			sks[i] = &sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 4+i)}
		case 1:
			sks[i] = &sketch.RangeSketch{Col: []string{"gd", "gi", "gt"}[(i/3)%3]}
		default:
			sks[i] = &sketch.MisraGriesSketch{Col: "gs", K: 4 + i}
		}
		var err error
		want[i], err = ds.Sketch(context.Background(), sks[i], nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &dsRunner{ds: ds}, sks, want
}

// TestBatchCoalescesDistinctQueries is the tentpole contract: K
// distinct cacheable queries arriving within one window execute as a
// single underlying scan, and every subscriber's result is bit-identical
// to its solo run.
func TestBatchCoalescesDistinctQueries(t *testing.T) {
	const k = 4
	run, sks, want := batchFixture(t, k)
	s := New(run, Config{MaxInFlight: k, Deadline: -1, BatchWindow: 500 * time.Millisecond})

	got := make([]sketch.Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d (%s): batched result differs from solo run", i, sks[i].Name())
		}
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
	st := s.Stats()
	if st.BatchesFormed != 1 || st.BatchMembers != k || st.ScansSaved != k-1 {
		t.Errorf("stats = formed %d members %d saved %d, want 1/%d/%d", st.BatchesFormed, st.BatchMembers, st.ScansSaved, k, k-1)
	}
}

// TestBatchDemuxesPartials: each batch subscriber's partial stream must
// carry only its own sketch's summary type, with monotone progress and
// the final partial equal to its returned result.
func TestBatchDemuxesPartials(t *testing.T) {
	parts, info := table.GenPartitions("bp", 13, 1500, 3)
	ds := engine.NewLocal("d", parts, engine.Config{Parallelism: 2, AggregationWindow: time.Nanosecond, ChunkRows: 128})
	run := &dsRunner{ds: ds}
	hist := &sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 6)}
	rng := &sketch.RangeSketch{Col: "gi"}
	s := New(run, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: 500 * time.Millisecond})

	type stream struct {
		mu  sync.Mutex
		ps  []engine.Partial
		res sketch.Result
		err error
	}
	streams := [2]*stream{{}, {}}
	var wg sync.WaitGroup
	for i, sk := range []sketch.Sketch{hist, rng} {
		wg.Add(1)
		go func(i int, sk sketch.Sketch) {
			defer wg.Done()
			st := streams[i]
			st.res, st.err = s.RunSketch(context.Background(), "d", sk, func(p engine.Partial) {
				st.mu.Lock()
				st.ps = append(st.ps, p)
				st.mu.Unlock()
			})
		}(i, sk)
	}
	wg.Wait()
	for i, st := range streams {
		if st.err != nil {
			t.Fatalf("member %d: %v", i, st.err)
		}
		if len(st.ps) == 0 {
			t.Fatalf("member %d: no partials", i)
		}
		prev := 0
		for j, p := range st.ps {
			if i == 0 {
				if _, ok := p.Result.(*sketch.Histogram); !ok {
					t.Fatalf("member 0 partial %d is %T, want *sketch.Histogram", j, p.Result)
				}
			} else {
				if _, ok := p.Result.(*sketch.DataRange); !ok {
					t.Fatalf("member 1 partial %d is %T, want *sketch.DataRange", j, p.Result)
				}
			}
			if p.Done < prev {
				t.Errorf("member %d: Done regressed %d -> %d", i, prev, p.Done)
			}
			prev = p.Done
		}
		last := st.ps[len(st.ps)-1]
		if last.Done != last.Total {
			t.Errorf("member %d: stream did not end with the completion partial", i)
		}
		if !reflect.DeepEqual(last.Result, st.res) {
			t.Errorf("member %d: final partial differs from returned result", i)
		}
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
}

// TestBatchMemberCancellation: cancelling one member's context mid-scan
// fails only that member; the batch keeps running and the surviving
// members' results stay bit-identical to their solo runs.
func TestBatchMemberCancellation(t *testing.T) {
	run, sks, want := batchFixture(t, 3)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	s := New(gated, Config{MaxInFlight: 3, Deadline: -1, BatchWindow: 200 * time.Millisecond})

	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	got := make([]sketch.Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == 0 {
				ctx = ctx0
			}
			got[i], errs[i] = s.RunSketch(ctx, "d", sks[i], nil)
		}(i)
	}
	<-started // the batch has formed and begun executing
	cancel0()
	// Member 0 must return promptly with its own cancellation while the
	// batch is still gated.
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.flights)
		s.mu.Unlock()
		if n == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("cancelled member never detached")
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("cancelled member err = %v, want context.Canceled", errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("surviving member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("surviving member %d: result differs from solo run", i)
		}
	}
	st := s.Stats()
	if st.BatchesFormed != 1 || st.BatchMembers != 3 {
		t.Errorf("stats = formed %d members %d, want 1/3", st.BatchesFormed, st.BatchMembers)
	}
}

// TestBatchAllMembersCancelled: when every member abandons the batch,
// the shared execution's context is cancelled — the scan does not keep
// burning cores for an audience of zero.
func TestBatchAllMembersCancelled(t *testing.T) {
	_, sks, _ := batchFixture(t, 2)
	execCancelled := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		close(execCancelled)
		return nil, ctx.Err()
	}}
	s := New(gated, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: 100 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.RunSketch(ctx, "d", sks[i], nil)
		}(i)
	}
	<-started
	cancel()
	wg.Wait()
	select {
	case <-execCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("batch execution not cancelled after every member left")
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("member %d err = %v, want context.Canceled", i, err)
		}
	}
}

// TestBatchDedupJoins: identical queries inside one window share a
// member instead of adding one, and both subscribers get the result.
func TestBatchDedupJoins(t *testing.T) {
	run, sks, want := batchFixture(t, 2)
	s := New(run, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: 500 * time.Millisecond})

	got := make([]sketch.Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, sk := range []sketch.Sketch{sks[0], sks[1], sks[0]} {
		wg.Add(1)
		go func(i int, sk sketch.Sketch) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sk, nil)
		}(i, sk)
	}
	wg.Wait()
	for i, wanti := range []sketch.Result{want[0], want[1], want[0]} {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], wanti) {
			t.Errorf("query %d: result differs from solo run", i)
		}
	}
	st := s.Stats()
	if st.DedupJoins != 1 {
		t.Errorf("dedup joins = %d, want 1", st.DedupJoins)
	}
	if st.BatchMembers != 2 {
		t.Errorf("batch members = %d, want 2 (identical queries share one member)", st.BatchMembers)
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
}

// TestBatchSingletonRunsSolo: a window that closes with one member must
// execute exactly the pre-batching solo path — the runner sees the
// original sketch, not a MultiSketch, and no batch is counted.
func TestBatchSingletonRunsSolo(t *testing.T) {
	run, sks, want := batchFixture(t, 1)
	var seen sketch.Sketch
	spy := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		seen = sk
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	s := New(spy, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: 20 * time.Millisecond})
	got, err := s.RunSketch(context.Background(), "d", sks[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Error("singleton result differs from solo run")
	}
	if _, ok := seen.(*sketch.MultiSketch); ok {
		t.Error("singleton window wrapped the sketch in a MultiSketch")
	}
	if st := s.Stats(); st.BatchesFormed != 0 || st.ScansSaved != 0 {
		t.Errorf("stats = formed %d saved %d, want 0/0", st.BatchesFormed, st.ScansSaved)
	}
}

// TestBatchWindowZeroIsTodaysBehavior: with BatchWindow 0 the batching
// layer is inert — distinct queries execute independently and no batch
// telemetry moves.
func TestBatchWindowZeroIsTodaysBehavior(t *testing.T) {
	run, sks, want := batchFixture(t, 2)
	s := New(run, Config{MaxInFlight: 2, Deadline: -1})
	got := make([]sketch.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: result differs", i)
		}
	}
	if n := run.count(); n != 2 {
		t.Errorf("underlying scans = %d, want 2", n)
	}
	if st := s.Stats(); st.BatchesFormed != 0 || st.BatchMembers != 0 || st.ScansSaved != 0 {
		t.Errorf("batch telemetry moved with batching disabled: %+v", st)
	}
}
