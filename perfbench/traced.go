package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// span is one timed call at a layer seam of the traced stack.
type span struct {
	req        string // request ID from the context's obs trace ("" if none)
	layer      string
	kind       string // sketch kind of dataset spans
	worker     int    // worker index of worker-side spans, -1 elsewhere
	rows       int64  // rows under a dataset span
	bytes      int64  // bytes a root load read (ingest datasets)
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// ledger holds the spans of the traced run in memory.
type ledger struct {
	mu    sync.Mutex
	spans []span
	on    atomic.Bool
}

func (l *ledger) add(s span) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func reqID(ctx context.Context) string { return obs.TraceFrom(ctx).ID() }

// sketchKind buckets sketch types into the ledger's leaf kinds.
func sketchKind(sk sketch.Sketch) string {
	switch sk.(type) {
	case *sketch.HistogramSketch, *sketch.SampledHistogramSketch, *sketch.CDFSketch:
		return "histogram"
	case *sketch.RangeSketch:
		return "range"
	case *sketch.Histogram2DSketch:
		return "hist2d"
	case *sketch.NextKSketch:
		return "nextk"
	case *sketch.SampleHeavyHittersSketch, *sketch.MisraGriesSketch:
		return "heavyhitters"
	case *sketch.DistinctBottomKSketch, *sketch.DistinctCountSketch:
		return "distinct"
	case *sketch.MultiSketch:
		return "multi"
	case *sketch.MetaSketch:
		return "meta"
	}
	return strings.TrimPrefix(reflect.TypeOf(sk).String(), "*sketch.")
}

// runnerSpan times every RunSketch through a spreadsheet.Runner or
// serve.Runner seam.
type runnerSpan struct {
	led   *ledger
	layer string
	next  interface {
		RunSketch(context.Context, string, sketch.Sketch, engine.PartialFunc) (sketch.Result, error)
	}
}

func (r runnerSpan) RunSketch(ctx context.Context, id string, sk sketch.Sketch, p engine.PartialFunc) (sketch.Result, error) {
	s := span{req: reqID(ctx), layer: r.layer, kind: sketchKind(sk), worker: -1, start: time.Now()}
	res, err := r.next.RunSketch(ctx, id, sk, p)
	s.end = time.Now()
	r.led.add(s)
	return res, err
}

// rootSpan is the serve.Runner seam: the engine root, timed. It keeps
// the root's generations visible to the scheduler.
type rootSpan struct {
	runnerSpan
	root *engine.Root
}

func (r rootSpan) DatasetGeneration(id string) uint64 { return r.root.DatasetGeneration(id) }

// tracedLoader wraps an engine.Loader: loads are timed, and the
// datasets it returns time their Sketch and Map calls. size, if set,
// reports the bytes a load of source reads.
func tracedLoader(led *ledger, side string, worker int, next engine.Loader, size func(source string) int64) engine.Loader {
	return func(id, source string) (engine.IDataSet, error) {
		s := span{layer: side + ".load", worker: worker, start: time.Now()}
		ds, err := next(id, source)
		s.end = time.Now()
		if err == nil {
			s.rows = datasetRows(ds)
			if size != nil {
				s.bytes = size(source)
			}
		}
		led.add(s)
		if err != nil {
			return nil, err
		}
		return &tracedDataSet{IDataSet: ds, led: led, side: side, worker: worker}, nil
	}
}

func datasetRows(ds engine.IDataSet) int64 {
	if l, ok := ds.(*engine.LocalDataSet); ok {
		return l.TotalRows()
	}
	return 0
}

// tracedDataSet is an engine.IDataSet whose Sketch and Map are timed.
type tracedDataSet struct {
	engine.IDataSet
	led    *ledger
	side   string
	worker int
}

func (d *tracedDataSet) Sketch(ctx context.Context, sk sketch.Sketch, p engine.PartialFunc) (sketch.Result, error) {
	s := span{req: reqID(ctx), layer: d.side + ".sketch", kind: sketchKind(sk), worker: d.worker, rows: datasetRows(d.IDataSet), start: time.Now()}
	res, err := d.IDataSet.Sketch(ctx, sk, p)
	s.end = time.Now()
	d.led.add(s)
	return res, err
}

func (d *tracedDataSet) Map(op engine.MapOp, newID string) (engine.IDataSet, error) {
	s := span{layer: d.side + ".map", worker: d.worker, start: time.Now()}
	ds, err := d.IDataSet.Map(op, newID)
	s.end = time.Now()
	d.led.add(s)
	if err != nil {
		return nil, err
	}
	return &tracedDataSet{IDataSet: ds, led: d.led, side: d.side, worker: d.worker}, nil
}

// tracedSource is an engine.LeafSource whose Acquire calls are timed.
type tracedSource struct {
	engine.LeafSource
	led    *ledger
	worker int
}

func (s tracedSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	sp := span{layer: "leaf.acquire", worker: s.worker, start: time.Now()}
	t, release, err := s.LeafSource.Acquire(i, cols)
	sp.end = time.Now()
	s.led.add(sp)
	return t, release, err
}

// workerLoader is the worker's storage loader, as cmd/hillview-worker
// builds it, except that all-HVC directories are served by a timed
// LeafSource over storage.NewPooledSource (the files in name order,
// IDs "<id>/<file>", as the pooled loader names them).
func workerLoader(led *ledger, worker int, cfg engine.Config, pool *colstore.Pool) engine.Loader {
	fallback := storage.NewPooledLoader(cfg, storage.DefaultMicroRows, pool)
	return func(id, source string) (engine.IDataSet, error) {
		dir, ok := strings.CutPrefix(source, "dir:")
		if !ok {
			return fallback(id, source)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*.hvc"))
		if err != nil || len(names) == 0 {
			return fallback(id, source)
		}
		sort.Strings(names)
		specs := make([]storage.PooledFileSpec, len(names))
		for i, n := range names {
			specs[i] = storage.PooledFileSpec{Path: n, ID: id + "/" + filepath.Base(n)}
		}
		src, err := storage.NewPooledSource(pool, specs, storage.DefaultMicroRows)
		if err != nil {
			return nil, err
		}
		return engine.NewLocalSource(id, tracedSource{LeafSource: src, led: led, worker: worker}, cfg), nil
	}
}

// countingTransport is the cluster.Transport seam: loopback TCP whose
// connections count their bytes and the time spent in Write.
type countingTransport struct {
	cluster.TCPTransport
	in, out, sendNS atomic.Int64
}

func (t *countingTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.TCPTransport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

type countingConn struct {
	net.Conn
	t *countingTransport
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	s := time.Now()
	n, err := c.Conn.Write(p)
	c.t.sendNS.Add(int64(time.Since(s)))
	c.t.out.Add(int64(n))
	return n, err
}

// tracedTarget is the stack cmd/hillview wires, rebuilt in this process
// from the layers' public constructors, with spans at every seam.
type tracedTarget struct {
	led     *ledger
	root    *engine.Root
	sched   *serve.Scheduler
	sheet   *spreadsheet.Sheet
	clu     *cluster.Cluster // nil for the in-process root (grow)
	tr      *countingTransport
	workers []*cluster.Worker
	addrs   []string
	pools   []*colstore.Pool
	store   *ingest.Store
	im      *ingest.Metrics
	ds      *ingest.Dataset

	mu    sync.Mutex
	view  *spreadsheet.View
	reqs  atomic.Int64
	calls []span // one "sheet.call" span per sent request
}

func newTracedTarget(w *Workload, dir string) (*tracedTarget, error) {
	t := &tracedTarget{led: &ledger{}}
	cfg := engine.Config{}
	var loader engine.Loader
	if w.Workers > 0 {
		for g := 0; g < w.Workers; g++ {
			pool := colstore.NewPool(w.PoolBudget)
			wk := cluster.NewWorker(tracedLoader(t.led, "worker", g, workerLoader(t.led, g, engine.Config{Parallelism: 1}, pool), nil))
			addr, err := wk.Listen("127.0.0.1:0")
			if err != nil {
				t.close()
				return nil, err
			}
			t.workers, t.addrs, t.pools = append(t.workers, wk), append(t.addrs, addr), append(t.pools, pool)
		}
		t.tr = &countingTransport{}
		c, err := cluster.ConnectOptions(t.tr, t.addrs, cfg, cluster.Options{Replication: 1, HealthInterval: 2 * time.Second})
		if err != nil {
			t.close()
			return nil, err
		}
		t.clu, loader = c, c.Loader()
	} else {
		pool := colstore.NewPool(w.PoolBudget)
		t.pools = []*colstore.Pool{pool}
		loader = storage.NewLoaderWith(cfg, storage.LoaderOpts{MicroRows: storage.DefaultMicroRows, Pool: pool, Cache: storage.NewDataCache(0)})
		t.im = &ingest.Metrics{}
		t.store = ingest.NewStore(filepath.Join(dir, "ingest"), ingest.StoreConfig{
			Metrics: t.im,
			OnSeal: func(name string, _ ingest.Partition) {
				if t.root != nil {
					t.root.Advance(name)
				}
			},
		})
		loader = t.store.WrapLoader(loader, cfg)
	}
	t.root = engine.NewRoot(tracedLoader(t.led, "root", -1, loader, t.sealedBytes))
	t.sched = serve.New(rootSpan{runnerSpan{t.led, "serve.runner", t.root}, t.root}, serve.Config{
		QueueDepth:    serve.DefaultQueueDepth,
		Deadline:      serve.DefaultDeadline,
		MaxResultRows: serve.DefaultMaxResultRows,
		BatchWindow:   serve.DefaultBatchWindow,
	})
	t.sheet = spreadsheet.NewWithRunner(t.root, runnerSpan{t.led, "spreadsheet.runner", t.sched})
	return t, nil
}

// close stops the cluster and the workers and fails if a worker's
// listener outlived them.
func (t *tracedTarget) close() error {
	if t.clu != nil {
		t.clu.Close()
	}
	for _, wk := range t.workers {
		wk.Close()
	}
	if t.store != nil {
		if err := t.store.Close(); err != nil {
			return err
		}
	}
	for _, addr := range t.addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("worker listener %s outlived the run: %v", addr, err)
		}
		ln.Close()
	}
	return nil
}

func (t *tracedTarget) loadView(ctx context.Context, source string) (int64, error) {
	v, err := t.sheet.Load(ctx, viewName, source)
	if err != nil {
		return 0, err
	}
	t.view = v
	return v.NumRows(), nil
}

func (t *tracedTarget) createGrow(ctx context.Context) error {
	schema, err := growTableSchema()
	if err != nil {
		return err
	}
	if t.ds, err = t.store.Create(growName, schema); err != nil {
		return err
	}
	t.view, err = t.sheet.Load(ctx, growName, ingest.SourcePrefix+growName)
	return err
}

func growTableSchema() (*table.Schema, error) {
	var cols []table.ColumnDesc
	for _, c := range strings.Split(growSchema, ",") {
		name, kind, _ := strings.Cut(c, ":")
		k, err := table.ParseKind(kind)
		if err != nil {
			return nil, err
		}
		cols = append(cols, table.ColumnDesc{Name: name, Kind: k})
	}
	return table.NewSchema(cols...), nil
}

func (t *tracedTarget) appendBatch(ctx context.Context, b *growBatch) error {
	tb, err := b.table()
	if err != nil {
		return err
	}
	rows := tb.Rows()
	s := span{layer: "ingest.append", worker: -1, start: time.Now()}
	err = t.ds.AppendRows(ctx, rows)
	s.end = time.Now()
	t.led.add(s)
	return err
}

func (t *tracedTarget) seal(ctx context.Context) error {
	s := span{layer: "ingest.seal", worker: -1, start: time.Now()}
	_, err := t.ds.Seal(ctx)
	s.end = time.Now()
	t.led.add(s)
	return err
}

// send replays one request through spreadsheet.View calls, as
// cmd/hillview's handler for it does, under a fresh request trace.
func (t *tracedTarget) send(ctx context.Context, client int, r Request) (Answer, error) {
	id := fmt.Sprintf("q%d", t.reqs.Add(1))
	ctx = obs.WithTrace(ctx, obs.NewTrace(id))
	s := span{req: id, layer: "sheet.call", kind: r.Class, worker: -1, start: time.Now()}
	a, err := t.call(ctx, r)
	s.end = time.Now()
	if t.led.on.Load() {
		t.mu.Lock()
		t.calls = append(t.calls, s)
		t.mu.Unlock()
	}
	return a, err
}

func (t *tracedTarget) call(ctx context.Context, r Request) (Answer, error) {
	v := t.view
	switch r.Kind {
	case "meta":
		return Answer{Rows: v.NumRows(), Columns: v.Schema().NumColumns()}, nil
	case "table":
		l, err := v.TableView(ctx, parseOrder(r.Order), splitExtra(r.Extra), r.K, nil, nil)
		if err != nil {
			return Answer{}, err
		}
		return tableAnswer(l), nil
	case "histogram", "filterhist":
		var rows int64
		if r.Kind == "filterhist" {
			fv, err := v.FilterExpr(ctx, r.Expr)
			if err != nil {
				return Answer{}, err
			}
			v, rows = fv, fv.NumRows()
		}
		hv, err := v.Histogram(ctx, r.Col, spreadsheet.ChartOptions{Bars: r.Bars, WithCDF: r.CDF, Exact: r.Exact, OnPartial: func(engine.Partial) {}})
		if err != nil {
			return Answer{}, err
		}
		a := histAnswer(hv)
		a.Rows = rows
		return a, nil
	case "heatmap":
		hm, err := v.Heatmap(ctx, r.Col, r.Col2, spreadsheet.ChartOptions{})
		if err != nil {
			return Answer{}, err
		}
		return heatAnswer(hm), nil
	case "heavyhitters":
		items, err := v.HeavyHitters(ctx, r.Col, r.K, r.Sampled)
		if err != nil {
			return Answer{}, err
		}
		return hhAnswer(items), nil
	}
	return Answer{}, fmt.Errorf("unknown request kind %q", r.Kind)
}

// counters is a snapshot of the layers' public counters.
type counters struct {
	serve                serve.Stats
	cacheHits, cacheMiss int64
	pool                 colstore.PoolStats // summed over the pools
	cluster              cluster.Stats
	wire                 cluster.WireStats // summed over connections
	appends, seals       int64
}

func (t *tracedTarget) snapshot() counters {
	var c counters
	c.serve = t.sched.Stats()
	c.cacheHits, c.cacheMiss = t.root.Cache().Stats()
	for _, p := range t.pools {
		s := p.Stats()
		c.pool.Hits += s.Hits
		c.pool.Misses += s.Misses
		c.pool.Evictions += s.Evictions
		c.pool.Resident += s.Resident
	}
	if t.clu != nil {
		c.cluster = t.clu.Stats()
		for _, ws := range t.clu.WireStats() {
			c.wire.BytesIn += ws.BytesIn
			c.wire.BytesOut += ws.BytesOut
			c.wire.FramesIn += ws.FramesIn
			c.wire.FramesOut += ws.FramesOut
			c.wire.EncodeNS += ws.EncodeNS
			c.wire.DecodeNS += ws.DecodeNS
		}
	}
	if t.im != nil {
		c.appends, c.seals = t.im.Appends.Load(), t.im.Seals.Load()
	}
	return c
}

// sealedBytes is the on-disk size of an ingest dataset's live sealed
// partitions: what a reload after a seal reads.
func (t *tracedTarget) sealedBytes(source string) int64 {
	if t.ds == nil || !strings.HasPrefix(source, ingest.SourcePrefix) {
		return 0
	}
	var n int64
	for _, p := range t.ds.Partitions() {
		if fi, err := os.Stat(filepath.Join(t.ds.Dir(), p.Name)); err == nil {
			n += fi.Size()
		}
	}
	return n
}
