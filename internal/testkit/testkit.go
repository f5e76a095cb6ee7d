// Package testkit is the deterministic chaos harness of the engine: a
// three-way differential oracle plus a fault-injection battery, both
// driven from a single seed so every failure reproduces exactly.
//
// # Three-way oracle
//
// Run(seed) generates a randomized partitioned table (table.GenPartitions:
// every column kind, missing masks, dictionary sizes, membership
// shapes) and pushes every sketch in sketch.WireSketches() through
// three execution topologies:
//
//  1. reference — Summarize per partition, sequential MergeAll fold:
//     the semantics a vizketch author writes down;
//  2. parallel engine — engine.LocalDataSet with chunked leaf tasks,
//     per-stripe accumulators, and the pairwise merge tree, whose fixed
//     shape makes the run exactly reproducible (it also runs twice and
//     must be bit-identical to itself);
//  3. cluster — the same partitions regenerated on real worker
//     processes behind TCP (the "testgen" scheme), queried through
//     engine.Root over cluster.Connect.
//
// Results must agree under the per-sketch oracle contract registered in
// package sketch (exact for deterministic sketches, documented error
// bounds for Misra–Gries and sampling sketches, reassociation tolerance
// for float folds); topologies 2 and 3 share scan geometry and must
// additionally agree bit-for-bit wherever the contract says PeerExact.
//
// # Fault battery
//
// RunFaults(seed) drives the cluster topology through scripted
// transport faults (cluster.FaultScript): frame delays, mid-frame
// stalls, duplicated partials, connection cuts, and worker crash
// mid-sketch. Non-destructive schedules must yield the bit-identical
// fault-free result; destructive ones must end — within a hard
// timeout — in either a correct result or a surfaced error. A hang or
// a silently wrong answer fails the run.
//
// The harness runs as ordinary `go test ./internal/testkit` cases and
// as the CI smoke (20+ rotating seeds under -race; see the flags in
// testkit_test.go).
package testkit

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// datasetID is the dataset name used by every harness topology.
const datasetID = "data"

// tracedContext attaches a fresh trace to ctx so every battery runs
// with tracing enabled end to end (spans recorded at each layer, trace
// IDs on the wire). The batteries' oracles are unchanged: results with
// tracing on must stay bit-identical to the untraced semantics.
func tracedContext(ctx context.Context) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(""))
}

// runTimeout bounds one schedule; reaching it is itself a failure (the
// "never a hang" half of the fault contract).
const runTimeout = 30 * time.Second

// clusterHandle is one live root-plus-workers topology.
type clusterHandle struct {
	cluster *cluster.Cluster
	workers []*cluster.Worker
	addrs   []string
	root    *engine.Root
}

// startCluster launches n workers on loopback and connects a root
// through tr (nil = plain TCP). Workers load data through the same
// engine config as the local topology, so scan geometry matches. prep
// (optional) configures each worker before it starts accepting —
// accept-time hooks like SetConnWrapper must be installed before the
// root dials, or they never see the root's connection.
func startCluster(n int, cfg engine.Config, tr cluster.Transport, prep func(*cluster.Worker)) (*clusterHandle, error) {
	return startClusterOpts(n, cfg, func([]string) cluster.Transport { return tr }, prep, cluster.Options{})
}

// startClusterOpts is startCluster with explicit cluster options and a
// transport constructor that sees the workers' bound addresses — the
// failover battery builds per-victim fault scripts from them.
func startClusterOpts(n int, cfg engine.Config, trFor func(addrs []string) cluster.Transport,
	prep func(*cluster.Worker), opts cluster.Options) (*clusterHandle, error) {
	h := &clusterHandle{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(storage.NewLoader(cfg, 0))
		if prep != nil {
			prep(w)
		}
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		h.workers = append(h.workers, w)
		addrs[i] = addr
	}
	h.addrs = addrs
	var tr cluster.Transport
	if trFor != nil {
		tr = trFor(addrs)
	}
	c, err := cluster.ConnectOptions(tr, addrs, cfg, opts)
	if err != nil {
		h.close()
		return nil, err
	}
	h.cluster = c
	h.root = engine.NewRoot(c.Loader())
	return h, nil
}

func (h *clusterHandle) close() {
	if h.cluster != nil {
		h.cluster.Close()
	}
	for _, w := range h.workers {
		w.Close()
	}
}

// genSource renders the testgen source spec that regenerates the run's
// partitions on each worker ({worker} expands to the worker's partition
// group, so replicas of a group regenerate bit-identical shards).
func genSource(prefix string, seed uint64, rows, parts, groups int) string {
	return fmt.Sprintf("testgen:prefix=%s,seed=%d,rows=%d,parts=%d,of=%d,worker={worker}",
		prefix, seed, rows, parts, groups)
}

// reference computes topology 1: per-partition Summarize folded
// sequentially in partition order.
func reference(sk sketch.Sketch, parts []*table.Table) (sketch.Result, error) {
	results := make([]sketch.Result, len(parts))
	for i, p := range parts {
		r, err := sk.Summarize(p)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return sketch.MergeAll(sk, results...)
}

// runParams are the size knobs one harness run derives from its seed.
// The derivation is shared by every topology driver (Run, RunFaults,
// RunPooled) so one seed always names one generated dataset.
type runParams struct {
	rows, parts, chunk int
	prefix             string
}

func genParams(seed uint64) runParams {
	rng := rand.New(rand.NewPCG(seed, seed^0x243f6a8885a308d3))
	return runParams{
		rows:   700 + int(rng.Uint64()%1800),
		parts:  3 + int(rng.Uint64()%3),
		chunk:  120 + int(rng.Uint64()%600),
		prefix: fmt.Sprintf("tk%d", seed),
	}
}

// Run executes the three-way differential oracle for one seed: every
// wire-registered sketch, three topologies, per-sketch contracts.
func Run(seed uint64) error {
	p := genParams(seed)
	rows, parts, chunk, prefix := p.rows, p.parts, p.chunk, p.prefix
	tables, info := table.GenPartitions(prefix, seed, rows, parts)
	cfg := engine.Config{
		Parallelism:       3,
		AggregationWindow: -1,
		ChunkRows:         chunk,
	}
	local := engine.NewLocal(datasetID, tables, cfg)

	h, err := startCluster(2, cfg, nil, nil)
	if err != nil {
		return fmt.Errorf("seed %d: starting cluster: %w", seed, err)
	}
	defer h.close()
	if _, err := h.root.Load(datasetID, genSource(prefix, seed, rows, parts, 2)); err != nil {
		return fmt.Errorf("seed %d: distributed load: %w", seed, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = tracedContext(ctx)
	for _, sk := range instances(seed, info) {
		if err := runOne(ctx, sk, tables, local, h.root); err != nil {
			return fmt.Errorf("seed %d: %s: %w", seed, sk.Name(), err)
		}
	}
	if err := checkPartialStream(ctx, seed, tables, info, chunk); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// runOne pushes one sketch instance through the three topologies and
// applies its oracle.
func runOne(ctx context.Context, sk sketch.Sketch, tables []*table.Table, local *engine.LocalDataSet, root *engine.Root) error {
	o, ok := sketch.OracleFor(sk)
	if !ok {
		return fmt.Errorf("no oracle registered for %T", sk)
	}
	ref, err := reference(sk, tables)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	eng, err := local.Sketch(ctx, sk, nil)
	if err != nil {
		return fmt.Errorf("parallel engine: %w", err)
	}
	// The stripe merge shape is a pure function of the scan geometry: a
	// second run must be bit-identical, even for merge-order-sensitive
	// sketches.
	eng2, err := local.Sketch(ctx, sk, nil)
	if err != nil {
		return fmt.Errorf("parallel engine rerun: %w", err)
	}
	if !reflect.DeepEqual(eng, eng2) {
		return fmt.Errorf("parallel engine not deterministic:\n first %+v\nsecond %+v", eng, eng2)
	}
	clu, err := root.RunSketch(ctx, datasetID, sk, nil)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := o.CheckResult(sk, tables, ref, eng); err != nil {
		return fmt.Errorf("parallel engine vs reference: %w", err)
	}
	if err := o.CheckResult(sk, tables, ref, clu); err != nil {
		return fmt.Errorf("cluster vs reference: %w", err)
	}
	if err := o.CheckPeer(sk, tables, eng, clu); err != nil {
		return fmt.Errorf("cluster vs parallel engine: %w", err)
	}
	return nil
}

// partialLog records a progressive stream for the monotonicity checks.
type partialLog struct {
	mu       sync.Mutex
	partials []engine.Partial
}

func (l *partialLog) add(p engine.Partial) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partials = append(l.partials, p)
}

// verify checks the progressive-stream contract: Done monotone and
// bounded, the stream ending complete, and the completion partial
// carrying the final result. strictCompletion additionally demands
// exactly one Done==Total partial — the LocalDataSet contract; an
// aggregation tree (or a duplicating fault schedule) may legitimately
// deliver the complete summary more than once.
func (l *partialLog) verify(total int, final sketch.Result, strictCompletion bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.partials) == 0 {
		return fmt.Errorf("no partials emitted")
	}
	prev, completions := -1, 0
	for _, p := range l.partials {
		if p.Done < prev {
			return fmt.Errorf("Done regressed: %d after %d", p.Done, prev)
		}
		if p.Done > p.Total || p.Total != total {
			return fmt.Errorf("Done/Total %d/%d out of bounds (want total %d)", p.Done, p.Total, total)
		}
		if p.Done == p.Total {
			completions++
		}
		prev = p.Done
	}
	if strictCompletion && completions != 1 {
		return fmt.Errorf("%d completion partials, want exactly one", completions)
	}
	last := l.partials[len(l.partials)-1]
	if last.Done != total {
		return fmt.Errorf("stream ended at Done=%d of %d", last.Done, total)
	}
	if final != nil && !reflect.DeepEqual(last.Result, final) {
		return fmt.Errorf("completion partial differs from the returned result")
	}
	return nil
}

// checkPartialStream runs one throttled sketch and applies the
// progressive-stream contract to the local topology.
func checkPartialStream(ctx context.Context, seed uint64, tables []*table.Table, info table.GenInfo, chunk int) error {
	cfg := engine.Config{
		Parallelism:       3,
		AggregationWindow: 1, // emit at every window boundary
		ChunkRows:         chunk/2 + 1,
	}
	ds := engine.NewLocal(datasetID, tables, cfg)
	sk := &sketch.HistogramSketch{
		Col:     "gd",
		Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 8),
	}
	log := &partialLog{}
	final, err := ds.Sketch(ctx, sk, log.add)
	if err != nil {
		return fmt.Errorf("partial stream: %w", err)
	}
	if err := log.verify(len(tables), final, true); err != nil {
		return fmt.Errorf("partial stream: %w", err)
	}
	return nil
}
