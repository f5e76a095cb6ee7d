package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
)

// dataset is the root-side handle for one logical dataset replicated
// across the cluster: every worker assigned to partition group g holds
// (or can regenerate) the identical shard of the data, namely the
// partitions ≡ g (mod nGroups). Sketches fan out one attempt per group
// and fail over between a group's replicas; results are deduplicated by
// group at merge time, so the answer is bit-identical to the fault-free
// run no matter which replicas served it.
//
// Materialization is lazy and per-worker: each (dataset, worker) pair
// tracks the worker generation it last loaded at. When a worker
// reconnects (wiping its soft state) or moves to a new group, its
// generation bumps and the next query re-materializes the lineage —
// load for root datasets, parent-then-map for derived ones — on demand.
type dataset struct {
	c      *Cluster
	id     string
	source string       // root datasets: the pure source spec
	parent *dataset     // derived datasets: lineage for replay
	op     engine.MapOp // the map producing this dataset from parent

	mu     sync.Mutex
	leaves map[int]int          // per-group leaf count, set at first load
	states map[*slot]*slotState // per-worker materialization state
}

// slotState single-flights one worker's materialization of one dataset:
// its mutex serializes load/map attempts, and gen records the worker
// generation the dataset was last materialized at.
type slotState struct {
	mu  sync.Mutex
	gen uint64
}

func (d *dataset) state(s *slot) *slotState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.states == nil {
		d.states = make(map[*slot]*slotState)
	}
	st := d.states[s]
	if st == nil {
		st = &slotState{}
		d.states[s] = st
	}
	return st
}

// ensure materializes the dataset on worker s (connection cl at
// generation gen) if it is not already there: root datasets load their
// group's shard from the source spec, derived datasets ensure their
// parent and re-run the map. Concurrent callers for the same worker
// single-flight behind the slotState mutex.
func (d *dataset) ensure(ctx context.Context, s *slot, cl *Client, gen uint64) error {
	st := d.state(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gen == gen {
		return nil
	}
	group := s.groupNow()
	var leaves int
	if d.parent != nil {
		if err := d.parent.ensure(ctx, s, cl, gen); err != nil {
			return err
		}
		n, err := cl.MapOp(ctx, d.parent.id, d.id, d.op)
		if err != nil {
			return err
		}
		leaves = n
	} else {
		n, err := cl.Load(ctx, d.id, ExpandSource(d.source, group))
		if err != nil {
			return err
		}
		leaves = n
	}
	if err := d.checkLeaves(group, leaves, s.addr); err != nil {
		return err
	}
	st.gen = gen
	return nil
}

// checkLeaves records (or validates) a group's leaf count. Replicas of
// a group must produce identical partitionings — a mismatch means the
// source is not a pure function of its spec, which silently breaks the
// bit-identity contract, so it is a hard error rather than a failover.
func (d *dataset) checkLeaves(group, leaves int, addr string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.leaves == nil {
		d.leaves = make(map[int]int)
	}
	if want, ok := d.leaves[group]; ok {
		if want != leaves {
			return fmt.Errorf("cluster: %s: dataset %s group %d has %d leaves, replica has %d: source is not a pure function of its spec",
				addr, d.id, group, leaves, want)
		}
		return nil
	}
	d.leaves[group] = leaves
	return nil
}

// invalidate forgets a worker's materialization so the next attempt
// reloads (the worker reported ErrMissingDataset: its soft state is
// gone but the connection is fine).
func (d *dataset) invalidate(s *slot) {
	st := d.state(s)
	st.mu.Lock()
	st.gen = 0
	st.mu.Unlock()
}

// releaseTimeout bounds the drop requests of one Release.
const releaseTimeout = 10 * time.Second

// Release implements engine.Releaser: it drops the dataset's ID on
// every live worker, in parallel, and forgets this handle's
// materializations, so a later ensure re-derives it through the
// lineage. It asks every worker, not only those this handle
// materialized: concurrent replays of one dataset build separate
// handles whose worker copies share the ID. Dropping an ID a worker
// does not hold is a no-op there.
func (d *dataset) Release() {
	ctx, cancel := context.WithTimeout(context.Background(), releaseTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range d.c.snapshotSlots() {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			st := d.state(s)
			st.mu.Lock()
			defer st.mu.Unlock()
			st.gen = 0
			cl, _, err := s.liveClient()
			if err != nil {
				return
			}
			// Best effort: if the request fails the connection is lost
			// or the worker is stuck, and the health monitor owns both.
			_ = cl.Drop(ctx, d.id)
		}(s)
	}
	wg.Wait()
}

// materialize eagerly loads the dataset on every live worker, in
// parallel. Worker losses are tolerated as long as every group keeps at
// least one materialized replica; leaf-count mismatches are not.
func (d *dataset) materialize(ctx context.Context) error {
	slots := d.c.snapshotSlots()
	errs := make([]error, len(slots))
	okGroups := make([]bool, d.c.nGroups)
	groups := make([]int, len(slots))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, s := range slots {
		groups[i] = s.groupNow()
		wg.Add(1)
		go func(i int, s *slot) {
			defer wg.Done()
			cl, gen, err := s.liveClient()
			if err == nil {
				err = d.ensure(ctx, s, cl, gen)
				d.c.noteOutcome(s, err)
			}
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			okGroups[groups[i]] = true
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		// A purity violation poisons the whole dataset regardless of
		// replica counts.
		if err != nil && !errors.Is(err, ErrWorkerLost) {
			return err
		}
	}
	for g := 0; g < d.c.nGroups; g++ {
		if okGroups[g] {
			continue
		}
		for i, err := range errs {
			if err != nil && groups[i] == g {
				return fmt.Errorf("cluster: dataset %s: no replica of group %d available: %w", d.id, g, err)
			}
		}
		return fmt.Errorf("cluster: dataset %s: no worker assigned to group %d", d.id, g)
	}
	return nil
}

// ID implements engine.IDataSet.
func (d *dataset) ID() string { return d.id }

// NumLeaves implements engine.IDataSet.
func (d *dataset) NumLeaves() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, l := range d.leaves {
		n += l
	}
	return n
}

func (d *dataset) leavesFor(g int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leaves[g]
}

// Sketch implements engine.IDataSet: a replicated fan-out over the
// partition groups, with failover, optional speculation, and per-group
// dedup (see engine.SketchReplicated).
func (d *dataset) Sketch(ctx context.Context, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	return engine.SketchReplicated(ctx, sk, onPartial, d.replicaGroups(), d.c.cfg, d.c.failoverOptions())
}

// Map implements engine.IDataSet. The derived dataset is materialized
// eagerly on the live workers (failures tolerated per-group, like
// loads); workers that were down re-derive it lazily via lineage when
// they next serve a query.
func (d *dataset) Map(op engine.MapOp, newID string) (engine.IDataSet, error) {
	child := &dataset{c: d.c, id: newID, parent: d, op: op}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := child.materialize(ctx); err != nil {
		return nil, err
	}
	return child, nil
}

// replicaGroups snapshots the cluster's replica map as engine replica
// groups for one sketch run. The Replicas functions re-snapshot at call
// time, so an attempt launched after a reconnect sees the fresh client.
func (d *dataset) replicaGroups() []engine.ReplicaGroup {
	groups := make([]engine.ReplicaGroup, d.c.nGroups)
	for g := 0; g < d.c.nGroups; g++ {
		g := g
		groups[g] = engine.ReplicaGroup{
			Range:    engine.PartitionRange{Group: g, Of: d.c.nGroups, Leaves: d.leavesFor(g)},
			Replicas: func() []engine.Replica { return d.replicasOf(g) },
		}
	}
	return groups
}

func (d *dataset) replicasOf(g int) []engine.Replica {
	var out []engine.Replica
	for _, s := range d.c.snapshotSlots() {
		if s.groupNow() == g {
			out = append(out, &replicaRef{c: d.c, s: s, d: d})
		}
	}
	return out
}

// replicaRef adapts one (worker, dataset) pair to engine.Replica. Down
// workers fail attempts immediately with ErrWorkerLost — failover moves
// on to the next replica without waiting on reconnects, so a fully-dead
// group errors cleanly instead of hanging.
type replicaRef struct {
	c *Cluster
	s *slot
	d *dataset
}

func (r *replicaRef) Name() string  { return r.s.addr }
func (r *replicaRef) Healthy() bool { return r.s.healthy() }

func (r *replicaRef) Sketch(ctx context.Context, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	cl, gen, err := r.s.liveClient()
	if err != nil {
		return nil, err
	}
	if err := r.d.ensure(ctx, r.s, cl, gen); err != nil {
		r.c.noteOutcome(r.s, err)
		return nil, err
	}
	res, err := cl.Sketch(ctx, r.d.id, sk, onPartial)
	if errors.Is(err, engine.ErrMissingDataset) && ctx.Err() == nil {
		// The worker evicted the dataset after ensure (soft state, §5.7):
		// replay the lineage once and retry here before failing over.
		r.d.invalidate(r.s)
		if rerr := r.d.ensure(ctx, r.s, cl, gen); rerr != nil {
			r.c.noteOutcome(r.s, rerr)
			return nil, rerr
		}
		res, err = cl.Sketch(ctx, r.d.id, sk, onPartial)
	}
	r.c.noteOutcome(r.s, err)
	return res, err
}
