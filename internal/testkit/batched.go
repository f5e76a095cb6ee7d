package testkit

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/table"
)

// RunBatched is the scan-batching differential: for one seed it draws
// pairs and triples from the harness sketch set, wraps each group in a
// sketch.MultiSketch, and demands every member's result be bit-identical
// to its solo run — through the reference fold, the parallel engine,
// and the serve.Scheduler's batched flight path (including a member
// cancelled mid-batch). Bit-identity, not oracle tolerance: a batch
// shares the solo path's chunk geometry, seeds, and merge order, so
// even merge-order-bounded sketches (Misra–Gries) and seeded sampled
// sketches must match exactly.
func RunBatched(seed uint64) error {
	p := genParams(seed)
	tables, info := table.GenPartitions(p.prefix, seed, p.rows, p.parts)
	cfg := engine.Config{
		Parallelism:       3,
		AggregationWindow: -1,
		ChunkRows:         p.chunk,
	}
	local := engine.NewLocal(datasetID, tables, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = tracedContext(ctx)

	// Batch-eligible members: WholePartition sketches change the chunk
	// geometry (and the scheduler excludes them), and multis don't nest.
	var eligible []sketch.Sketch
	for _, sk := range instances(seed, info) {
		if _, whole := sk.(sketch.WholePartition); whole {
			continue
		}
		if _, isMulti := sk.(*sketch.MultiSketch); isMulti {
			continue
		}
		eligible = append(eligible, sk)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })

	// Rotating pairs and triples off the shuffled deck.
	var groups [][]sketch.Sketch
	for i, size := 0, 2; i+size <= len(eligible) && len(groups) < 6; size = 5 - size {
		groups = append(groups, eligible[i:i+size])
		i += size
	}

	solo := func(sk sketch.Sketch) (ref, eng sketch.Result, err error) {
		if ref, err = reference(sk, tables); err != nil {
			return nil, nil, fmt.Errorf("solo reference %s: %w", sk.Name(), err)
		}
		if eng, err = local.Sketch(ctx, sk, nil); err != nil {
			return nil, nil, fmt.Errorf("solo engine %s: %w", sk.Name(), err)
		}
		return ref, eng, nil
	}

	for gi, members := range groups {
		multi, err := sketch.NewMultiSketch(members...)
		if err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		refs := make([]sketch.Result, len(members))
		engs := make([]sketch.Result, len(members))
		for i, m := range members {
			if refs[i], engs[i], err = solo(m); err != nil {
				return fmt.Errorf("group %d: %w", gi, err)
			}
		}
		// Topology 1: reference fold of the composite.
		mref, err := reference(multi, tables)
		if err != nil {
			return fmt.Errorf("group %d: batched reference: %w", gi, err)
		}
		if err := membersIdentical(mref, refs, members); err != nil {
			return fmt.Errorf("group %d: batched reference vs solo reference: %w", gi, err)
		}
		// Topology 2: the parallel engine, chunked accumulator path.
		meng, err := local.Sketch(ctx, multi, nil)
		if err != nil {
			return fmt.Errorf("group %d: batched engine: %w", gi, err)
		}
		if err := membersIdentical(meng, engs, members); err != nil {
			return fmt.Errorf("group %d: batched engine vs solo engine: %w", gi, err)
		}
	}

	// Topology 3: the scheduler's batching window over distinct
	// cacheable queries, plus mid-batch cancellation of one member.
	if err := runSchedulerBatched(ctx, seed, tables, local, eligible); err != nil {
		return fmt.Errorf("seed %d scheduler: %w", seed, err)
	}
	return nil
}

// membersIdentical demands got (a *sketch.MultiResult) match the solo
// results member for member, bit for bit.
func membersIdentical(got sketch.Result, want []sketch.Result, members []sketch.Sketch) error {
	mr, ok := got.(*sketch.MultiResult)
	if !ok {
		return fmt.Errorf("composite result is %T, want *sketch.MultiResult", got)
	}
	if len(mr.Members) != len(want) {
		return fmt.Errorf("composite has %d members, want %d", len(mr.Members), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(mr.Members[i], want[i]) {
			return fmt.Errorf("member %d (%s) differs from its solo run", i, members[i].Name())
		}
	}
	return nil
}

// gatedRunner counts underlying scans and optionally holds them at a
// gate, so tests can act while a batch is provably mid-execution.
type gatedRunner struct {
	ds      *engine.LocalDataSet
	calls   atomic.Int64
	started chan struct{} // buffered; signalled once per execution
	gate    chan struct{} // nil = run immediately
}

func (r *gatedRunner) RunSketch(ctx context.Context, _ string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	r.calls.Add(1)
	if r.started != nil {
		select {
		case r.started <- struct{}{}:
		default:
		}
	}
	if r.gate != nil {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return r.ds.Sketch(ctx, sk, onPartial)
}

// runSchedulerBatched drives distinct cacheable queries concurrently
// through a Scheduler with an open batching window and checks each
// subscriber's stream and result against its solo engine run.
func runSchedulerBatched(ctx context.Context, seed uint64, tables []*table.Table, local *engine.LocalDataSet, eligible []sketch.Sketch) error {
	// Distinct cacheable sketches only: identical keys dedup-join into
	// one member, which is covered by the serve package's own tests.
	seen := map[string]bool{}
	var cacheable []sketch.Sketch
	for _, sk := range eligible {
		if key, ok := engine.Key(datasetID, sk); ok && !seen[key] {
			seen[key] = true
			cacheable = append(cacheable, sk)
		}
	}
	if len(cacheable) < 3 {
		return fmt.Errorf("only %d distinct cacheable sketches; harness set too thin", len(cacheable))
	}
	size := 3
	if len(cacheable) < 5 {
		size = len(cacheable)
	} else if seed%2 == 0 {
		size = 5
	}
	members := cacheable[:size]
	soloEng := make([]sketch.Result, size)
	for i, m := range members {
		var err error
		if soloEng[i], err = local.Sketch(ctx, m, nil); err != nil {
			return fmt.Errorf("solo engine %s: %w", m.Name(), err)
		}
	}

	run := &gatedRunner{ds: local, started: make(chan struct{}, 1), gate: make(chan struct{})}
	sched := serve.New(run, serve.Config{MaxInFlight: 4, Deadline: -1, BatchWindow: 500 * time.Millisecond})

	cancelCtx, cancelMember := context.WithCancel(ctx)
	defer cancelMember()
	results := make([]sketch.Result, size)
	errs := make([]error, size)
	logs := make([]*partialLog, size)
	var wg sync.WaitGroup
	memberDone := make(chan struct{})
	for i, m := range members {
		logs[i] = &partialLog{}
		wg.Add(1)
		go func(i int, m sketch.Sketch) {
			defer wg.Done()
			mctx := ctx
			if i == 0 {
				mctx = cancelCtx
				defer close(memberDone)
			}
			results[i], errs[i] = sched.RunSketch(mctx, datasetID, m, logs[i].add)
		}(i, m)
	}

	// The gate holds the scan; once it signals started, the window has
	// closed and the batch (or a straggler's solo flight) is executing.
	select {
	case <-run.started:
	case <-ctx.Done():
		return fmt.Errorf("batch never started executing")
	}
	// Cancel member 0 mid-batch, and wait for it to detach before
	// releasing the gate so the cancellation provably happened mid-scan.
	cancelMember()
	select {
	case <-memberDone:
	case <-ctx.Done():
		return fmt.Errorf("cancelled member never returned")
	}
	close(run.gate)
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		return fmt.Errorf("cancelled member returned %v, want context.Canceled", errs[0])
	}
	for i := 1; i < size; i++ {
		if errs[i] != nil {
			return fmt.Errorf("member %d (%s): %w", i, members[i].Name(), errs[i])
		}
		if !reflect.DeepEqual(results[i], soloEng[i]) {
			return fmt.Errorf("member %d (%s): scheduler-batched result differs from solo engine run", i, members[i].Name())
		}
		if err := logs[i].verify(len(tables), results[i], true); err != nil {
			return fmt.Errorf("member %d (%s) partial stream: %w", i, members[i].Name(), err)
		}
	}
	st := sched.Stats()
	if st.BatchesFormed < 1 {
		return fmt.Errorf("no batch formed (members %d, stats %+v)", size, st)
	}
	if st.BatchMembers < 2 {
		return fmt.Errorf("batch too small: %d members recorded", st.BatchMembers)
	}
	return nil
}
