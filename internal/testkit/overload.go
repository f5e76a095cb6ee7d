package testkit

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/table"
)

// The overload battery (RunOverload) is the serving-layer counterpart
// of the fault battery: instead of breaking the transport, it breaks
// the load assumption. ~100 concurrent clients hammer a small-capacity
// scheduler over a shared 2-replica cluster with a mixed query set
// (rotating with the seed), while a churn goroutine invalidates the
// computation cache so scans stay real. The contract, checked for every
// query:
//
//   - an admitted query returns the bit-identical answer an unloaded
//     run of the same query produces, or a clean typed error (shed,
//     queue timeout, deadline) — never a wrong answer, never a hang
//     (the whole storm must finish within runTimeout);
//   - an injected panicking sketch fails only its own query: the worker
//     process survives, concurrent queries are unaffected, and the
//     cluster answers correctly afterwards;
//   - K concurrent identical cacheable queries execute the underlying
//     scan exactly once (single-flight), with every subscriber getting
//     the same result and the same partial stream.

// overloadPanicSketch panics while summarizing any partition — on the
// cluster topology that panic happens inside a worker process, whose
// per-request recovery must turn it into an error reply for this query
// alone.
type overloadPanicSketch struct{ Marker int }

func (s *overloadPanicSketch) Name() string        { return "overload-panic" }
func (s *overloadPanicSketch) Zero() sketch.Result { return int64(0) }
func (s *overloadPanicSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	return a.(int64) + b.(int64), nil
}

func (s *overloadPanicSketch) Summarize(t *table.Table) (sketch.Result, error) {
	panic(fmt.Sprintf("injected overload panic on %s", t.ID()))
}

func init() {
	// The panic sketch is not in the binary codec registry, so it ships
	// through the gob fallback envelope; both ends of the in-process
	// cluster share this registration.
	gob.Register(&overloadPanicSketch{})
}

// countingRunner counts executions reaching the engine — the dedup
// phase's exactly-once oracle. A non-nil gate blocks every execution
// until released, holding a flight open while subscribers pile in.
type countingRunner struct {
	root  *engine.Root
	calls atomic.Int64
	gate  chan struct{}
}

func (c *countingRunner) RunSketch(ctx context.Context, id string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.root.RunSketch(ctx, id, sk, onPartial)
}

// cleanOverloadError reports whether err is one of the typed errors the
// serving contract allows a query to fail with under pure overload.
func cleanOverloadError(err error) bool {
	return errors.Is(err, serve.ErrShed) ||
		errors.Is(err, serve.ErrQueueTimeout) ||
		errors.Is(err, context.DeadlineExceeded)
}

// RunOverload executes the overload battery for one seed.
func RunOverload(seed uint64) error {
	p := genParams(seed)
	cfg := engine.Config{
		Parallelism:       3,
		AggregationWindow: -1,
		ChunkRows:         p.chunk,
	}
	// Shared 2-replica cluster: 4 workers in 2 groups of 2.
	h, err := startClusterOpts(4, cfg, nil, nil, cluster.Options{Replication: 2})
	if err != nil {
		return fmt.Errorf("seed %d: starting cluster: %w", seed, err)
	}
	defer h.close()
	if _, err := h.root.Load(datasetID, genSource(p.prefix, seed, p.rows, p.parts, 2)); err != nil {
		return fmt.Errorf("seed %d: distributed load: %w", seed, err)
	}

	_, info := table.GenPartitions(p.prefix, seed, p.rows, p.parts)
	set := instances(seed, info)

	// Phase 0 — unloaded baselines: each instance once, no scheduler, no
	// concurrency. The leaf scan's fixed stripe merge shape makes the
	// loaded runs comparable bit-for-bit.
	ctx, cancel := context.WithTimeout(context.Background(), 2*runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	baseline := make([]sketch.Result, len(set))
	for i, sk := range set {
		res, err := h.root.RunSketch(ctx, datasetID, sk, nil)
		if err != nil {
			return fmt.Errorf("seed %d: baseline %s: %w", seed, sk.Name(), err)
		}
		baseline[i] = res
	}

	if err := overloadStorm(seed, h.root, set, baseline); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	if err := dedupExactlyOnce(h.root, set, baseline); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}

	// The cluster must still answer correctly after panics and shedding.
	res, err := h.root.RunSketch(ctx, datasetID, set[0], nil)
	if err != nil {
		return fmt.Errorf("seed %d: post-storm query: %w", seed, err)
	}
	if !reflect.DeepEqual(res, baseline[0]) {
		return fmt.Errorf("seed %d: post-storm result differs from baseline", seed)
	}
	return nil
}

// overloadStorm is the concurrent-client phase: 100 clients, small
// capacity, cache churn, and a sprinkling of panicking queries.
func overloadStorm(seed uint64, root *engine.Root, set []sketch.Sketch, baseline []sketch.Result) error {
	const (
		clients    = 100
		iterations = 6
	)
	sched := serve.New(root, serve.Config{
		MaxInFlight: 4,
		QueueDepth:  8,
		Deadline:    10 * time.Second,
	})

	// Cache churn: with the computation cache always warm, repeat
	// queries would be pure hits and the admission path would never see
	// a real scan. Invalidating on a short period keeps a steady miss
	// stream without making hits impossible.
	churnDone := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-churnDone:
				return
			case <-tick.C:
				root.Cache().InvalidateDataset(datasetID)
			}
		}
	}()

	var (
		wg                     sync.WaitGroup
		mu                     sync.Mutex
		firstErr               error
		okCount, errCount      atomic.Int64
		panicOK, panicExpected atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			for i := 0; i < iterations; i++ {
				// One slot past the instance set injects the panic sketch.
				idx := int(rng.Uint64() % uint64(len(set)+1))
				if idx == len(set) {
					panicExpected.Add(1)
					_, err := sched.RunSketch(context.Background(), datasetID, &overloadPanicSketch{Marker: c}, nil)
					switch {
					case err == nil:
						fail(fmt.Errorf("client %d: panicking sketch returned a result", c))
					case strings.Contains(err.Error(), "panic") || cleanOverloadError(err):
						// A worker-side panic surfaced as this query's error,
						// or admission shed the query before it ran: both
						// confine the blast radius to this one query.
						panicOK.Add(1)
					default:
						fail(fmt.Errorf("client %d: panicking sketch: unexpected error class: %v", c, err))
					}
					continue
				}
				res, err := sched.RunSketch(context.Background(), datasetID, set[idx], nil)
				if err != nil {
					if !cleanOverloadError(err) {
						fail(fmt.Errorf("client %d: %s: unexpected error class: %v", c, set[idx].Name(), err))
					}
					errCount.Add(1)
					continue
				}
				if !reflect.DeepEqual(res, baseline[idx]) {
					fail(fmt.Errorf("client %d: %s: admitted result differs from unloaded baseline", c, set[idx].Name()))
				}
				okCount.Add(1)
			}
		}(c)
	}

	// The hang budget: a storm that does not drain within runTimeout is
	// itself a failure, whatever the per-query results say.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(runTimeout):
		return fmt.Errorf("overload storm hung: not drained after %v", runTimeout)
	}
	close(churnDone)
	churn.Wait()

	if firstErr != nil {
		return firstErr
	}
	if okCount.Load() == 0 {
		return fmt.Errorf("overload storm: no query was admitted and answered")
	}
	if panicExpected.Load() == 0 || panicOK.Load() != panicExpected.Load() {
		return fmt.Errorf("overload storm: %d/%d panicking queries confined correctly",
			panicOK.Load(), panicExpected.Load())
	}
	_ = errCount.Load() // shed/deadline count is workload-dependent; any value is legal
	if st := sched.Stats(); st.InFlight != 0 || st.Queued != 0 {
		return fmt.Errorf("overload storm: gauges not drained: %+v", st)
	}
	return nil
}

// dedupExactlyOnce is the single-flight phase: K concurrent identical
// cacheable queries must reach the engine exactly once, and every
// subscriber must observe the same result and the same partial stream.
func dedupExactlyOnce(root *engine.Root, set []sketch.Sketch, baseline []sketch.Result) error {
	const subscribers = 16
	// set[0] is a plain HistogramSketch — deterministic and cacheable.
	target, want := set[0], baseline[0]
	if _, cacheable := engine.Key(datasetID, target); !cacheable {
		return fmt.Errorf("dedup phase: instance %s is not cacheable", target.Name())
	}
	// Force a real scan: the flight must execute, not hit the cache.
	root.Cache().InvalidateDataset(datasetID)

	run := &countingRunner{root: root, gate: make(chan struct{})}
	sched := serve.New(run, serve.Config{MaxInFlight: 4, Deadline: -1})

	type obs struct {
		res      sketch.Result
		err      error
		partials []engine.Partial
	}
	results := make([]obs, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mu sync.Mutex
			results[i].res, results[i].err = sched.RunSketch(context.Background(), datasetID, target, func(p engine.Partial) {
				mu.Lock()
				results[i].partials = append(results[i].partials, p)
				mu.Unlock()
			})
		}(i)
	}
	// Hold the flight open until every subscriber has joined it, then
	// release; joins count in DedupJoins as they land.
	joined := false
	for deadline := time.Now().Add(runTimeout); time.Now().Before(deadline); {
		if sched.Stats().DedupJoins == subscribers-1 {
			joined = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(run.gate)
	wg.Wait()
	if !joined {
		return fmt.Errorf("dedup phase: only %d/%d subscribers joined the flight within %v",
			sched.Stats().DedupJoins+1, subscribers, runTimeout)
	}

	if got := run.calls.Load(); got != 1 {
		return fmt.Errorf("dedup phase: %d executions reached the engine, want exactly 1", got)
	}
	for i := range results {
		if results[i].err != nil {
			return fmt.Errorf("dedup phase: subscriber %d: %v", i, results[i].err)
		}
		if !reflect.DeepEqual(results[i].res, want) {
			return fmt.Errorf("dedup phase: subscriber %d result differs from baseline", i)
		}
		if !reflect.DeepEqual(results[i].partials, results[0].partials) {
			return fmt.Errorf("dedup phase: subscriber %d partial stream differs (%d vs %d partials)",
				i, len(results[i].partials), len(results[0].partials))
		}
	}
	if len(results[0].partials) == 0 {
		return fmt.Errorf("dedup phase: no partials delivered to subscribers")
	}
	return nil
}
