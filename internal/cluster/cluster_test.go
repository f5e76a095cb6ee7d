package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

func init() { flights.Register() }

// startWorkers launches n workers on loopback and returns a connected
// cluster plus the worker handles.
func startWorkers(t *testing.T, n int) (*Cluster, []*Worker) {
	t.Helper()
	cfg := engine.Config{AggregationWindow: time.Millisecond}
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(storage.NewLoader(cfg, 0))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = addr
	}
	c, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, workers
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	in := &Envelope{
		ReqID:  7,
		Kind:   MsgSketch,
		Sketch: &sketch.RangeSketch{Col: "x"},
	}
	if err := fc.send(in); err != nil {
		t.Fatal(err)
	}
	out, err := fc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.ReqID != 7 || out.Kind != MsgSketch {
		t.Fatalf("frame = %+v", out)
	}
	if out.Sketch.Name() != in.Sketch.Name() {
		t.Errorf("sketch lost: %q", out.Sketch.Name())
	}
	if fc.BytesIn() == 0 || fc.BytesOut() == 0 || fc.BytesIn() != fc.BytesOut() {
		t.Errorf("byte accounting: in=%d out=%d", fc.BytesIn(), fc.BytesOut())
	}
}

func TestWorkerLoadAndSketch(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	leaves, err := cl.Load(ctx, "fl", "flights:rows=20000,parts=4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 4 {
		t.Fatalf("leaves = %d", leaves)
	}
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20)}
	var partials int32
	res, err := cl.Sketch(ctx, "fl", sk, func(engine.Partial) { atomic.AddInt32(&partials, 1) })
	if err != nil {
		t.Fatal(err)
	}
	// Compare with a local computation on identical data.
	local := engine.NewLocal("fl", flights.GenPartitions("fl", 20000, 4, 3, flights.CoreColumns), engine.Config{AggregationWindow: -1})
	want, err := local.Sketch(ctx, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("remote result differs from local")
	}
	if atomic.LoadInt32(&partials) == 0 {
		t.Error("no partials streamed over the wire")
	}
	if c.BytesReceived() == 0 {
		t.Error("no bytes accounted")
	}
	// Summaries are small: a 20-bucket histogram (plus partials and gob
	// type info) must be a few KB, nothing like the 20000-row data.
	if got := c.BytesReceived(); got > 64*1024 {
		t.Errorf("root received %d bytes for a tiny summary", got)
	}
}

func TestWorkerMapAndDrop(t *testing.T) {
	c, w := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "fl", "flights:rows=5000,parts=2,seed=1"); err != nil {
		t.Fatal(err)
	}
	leaves, err := cl.MapOp(ctx, "fl", "ua", engine.FilterOp{Predicate: `Carrier == "UA"`})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 2 {
		t.Fatalf("leaves = %d", leaves)
	}
	res, err := cl.Sketch(ctx, "ua", &sketch.MisraGriesSketch{Col: "Carrier", K: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := res.(*sketch.HeavyHitters).Hitters()
	if len(hits) != 1 || hits[0].Value.S != "UA" {
		t.Fatalf("filtered heavy hitters = %+v", hits)
	}
	if w[0].NumDatasets() != 2 {
		t.Errorf("worker datasets = %d", w[0].NumDatasets())
	}
	if err := cl.Drop(ctx, "ua"); err != nil {
		t.Fatal(err)
	}
	if w[0].NumDatasets() != 1 {
		t.Errorf("after drop: %d", w[0].NumDatasets())
	}
	if _, err := cl.Sketch(ctx, "ua", &sketch.RangeSketch{Col: "Distance"}, nil); !errors.Is(err, engine.ErrMissingDataset) {
		t.Errorf("dropped dataset error = %v", err)
	}
}

func TestWorkerErrors(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "x", "nosuchscheme:zz"); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := cl.Sketch(ctx, "ghost", &sketch.RangeSketch{Col: "a"}, nil); !errors.Is(err, engine.ErrMissingDataset) {
		t.Errorf("ghost dataset error = %v", err)
	}
	if _, err := cl.Load(ctx, "fl", "flights:rows=100,parts=1,seed=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sketch(ctx, "fl", &sketch.RangeSketch{Col: "NoCol"}, nil); err == nil {
		t.Error("unknown column should fail remotely")
	}
	if _, err := cl.MapOp(ctx, "fl", "bad", engine.FilterOp{Predicate: "syntax error ("}); err == nil {
		t.Error("bad predicate should fail remotely")
	}
}

func TestClusterRootEndToEnd(t *testing.T) {
	c, _ := startWorkers(t, 3)
	root := engine.NewRoot(c.Loader())
	// {worker} expansion gives each worker a distinct shard.
	if _, err := root.Load("fl", "flights:rows=10000,parts=2,seed=10{worker}"); err != nil {
		t.Fatal(err)
	}
	ds, err := root.Get("fl")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLeaves() != 6 {
		t.Fatalf("leaves = %d", ds.NumLeaves())
	}
	// Distributed filter + histogram with partial streaming.
	if _, err := root.Filter("fl", "delayed", "DepDelay > 30"); err != nil {
		t.Fatal(err)
	}
	var partials int32
	res, err := root.RunSketch(context.Background(), "delayed",
		&sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, 30, 500, 20)},
		func(engine.Partial) { atomic.AddInt32(&partials, 1) })
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*sketch.Histogram)
	if h.TotalCount() == 0 {
		t.Error("no delayed flights found")
	}
	if h.OutOfRange != 0 {
		t.Errorf("delayed filter leaked %d out-of-range rows", h.OutOfRange)
	}
	if atomic.LoadInt32(&partials) == 0 {
		t.Error("no partials reached the root")
	}
}

// TestEvictReleasesWorkersUnderLoad evicts a derived dataset over and
// over while other goroutines query it. Eviction drops the dataset on
// the workers and queries replay it, so every answer must equal the
// first one; run it under -race for the release/ensure interleavings.
// Concurrent replays leave worker copies behind handles the root no
// longer holds; once the queries stop, one more eviction of the
// dataset's current handle drops those copies too (they share its ID),
// leaving only the loaded dataset on each worker.
func TestEvictReleasesWorkersUnderLoad(t *testing.T) {
	c, workers := startWorkers(t, 2)
	root := engine.NewRoot(c.Loader())
	if _, err := root.Load("fl", "flights:rows=4000,parts=2,seed=4{worker}"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("fl", "late", "DepDelay > 20"); err != nil {
		t.Fatal(err)
	}
	hist := &sketch.HistogramSketch{Col: "ArrDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 240, 16)}
	answer := func() (string, error) {
		// Get replays the dataset if an eviction removed it, and a
		// replay invalidates its cached results, so the query reaches
		// the workers.
		if _, err := root.Get("late"); err != nil {
			return "", err
		}
		res, err := root.RunSketch(context.Background(), "late", hist, nil)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res), nil
	}
	want, err := answer()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				root.Evict("late")
			}
		}
	}()
	errs := make(chan error, 3)
	var queries sync.WaitGroup
	for g := 0; g < 3; g++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 15; i++ {
				got, err := answer()
				if err == nil && got != want {
					err = fmt.Errorf("answer %s, want %s", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := root.Get("late"); err != nil {
		t.Fatal(err)
	}
	root.Evict("late")
	for i, w := range workers {
		if n := w.NumDatasets(); n != 1 {
			t.Errorf("worker %d holds %d datasets after the final eviction, want 1", i, n)
		}
	}
}

func TestClusterWorkerRestartRecovery(t *testing.T) {
	c, workers := startWorkers(t, 2)
	root := engine.NewRoot(c.Loader())
	if _, err := root.Load("fl", "flights:rows=8000,parts=2,seed=5{worker}"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("fl", "west", `OriginState == "CA"`); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.MisraGriesSketch{Col: "Origin", K: 10}
	want, err := root.RunSketch(context.Background(), "west", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both workers "restart": soft state gone, processes alive.
	workers[0].DropAll()
	workers[1].DropAll()
	// The cached result still serves (deterministic sketch)...
	if _, err := root.RunSketch(context.Background(), "west", sk, nil); err != nil {
		t.Fatal(err)
	}
	// ...and a fresh (uncacheable) sketch forces replay through the
	// missing lineage: load on both workers, filter re-applied.
	q := &sketch.QuantileSketch{Order: table.Asc("Distance"), SampleSize: 50, Seed: 3}
	if _, err := root.RunSketch(context.Background(), "west", q, nil); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if workers[0].NumDatasets() == 0 || workers[1].NumDatasets() == 0 {
		t.Error("replay did not rebuild worker state")
	}
	// Replayed deterministic results match pre-crash results.
	root.Cache().InvalidateDataset("west")
	got, err := root.RunSketch(context.Background(), "west", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("replayed summary differs from pre-crash summary")
	}
}

func TestClusterCancellation(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	// Enough partitions that cancellation lands mid-query.
	if _, err := cl.Load(context.Background(), "big", "flights:rows=400000,parts=64,seed=2"); err != nil {
		t.Fatal(err)
	}
	// Scan a derived (computed, expression-evaluated) column: tens of
	// milliseconds of leaf work, so the cancel below — which must
	// round-trip the wire after the first partial arrives — always
	// lands while most partitions are still queued. Partial emission no
	// longer blocks the scan, so a raw-column scan could outrun it.
	if _, err := cl.MapOp(context.Background(), "big", "big2", engine.DeriveOp{Col: "d2", Expr: "Distance * 2"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var saw int32
	// Cancel from inside the partial callback while the worker is still
	// mid-query. A watcher goroutine polling with time.Sleep is racy on
	// coarse-timer machines, where the whole query can finish before a
	// sleep returns.
	_, err := cl.Sketch(ctx, "big2", &sketch.HistogramSketch{Col: "d2", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 6000, 10)},
		func(p engine.Partial) {
			atomic.StoreInt32(&saw, int32(p.Done))
			if p.Done >= 1 && p.Done < p.Total {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	// The connection stays healthy for the next request.
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("connection broken after cancel: %v", err)
	}
}

func TestClusterConcurrentRequests(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "fl", "flights:rows=30000,parts=8,seed=4"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 10+i)}
			res, err := cl.Sketch(ctx, "fl", sk, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if got := len(res.(*sketch.Histogram).Counts); got != 10+i {
				errs[i] = errors.New("wrong histogram came back (multiplexing mix-up)")
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExpandSource(t *testing.T) {
	if got := ExpandSource("dir:/data/shard-{worker}", 3); got != "dir:/data/shard-3" {
		t.Errorf("ExpandSource = %q", got)
	}
	if got := ExpandSource("file:/x.csv", 1); got != "file:/x.csv" {
		t.Errorf("no-placeholder source changed: %q", got)
	}
	if !strings.Contains(ExpandSource("a{worker}b{worker}", 2), "a2b2") {
		t.Error("multiple placeholders")
	}
}

func TestConnectFailure(t *testing.T) {
	// Negative dial budget = single attempt; the default budget would
	// retry a dead address for seconds before giving up.
	opts := Options{DialRetryBudget: -1}
	if _, err := ConnectOptions(nil, []string{"127.0.0.1:1"}, engine.Config{}, opts); err == nil {
		t.Error("connecting to a dead address should fail")
	}
	if _, err := ConnectOptions(nil, nil, engine.Config{}, opts); err == nil {
		t.Error("connecting to zero addresses should fail")
	}
}
