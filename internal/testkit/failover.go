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
	"repro/internal/sketch"
	"repro/internal/table"
)

// RunFailover drives the replicated (R=2) cluster through destructive
// fault schedules and FLIPS the fault contract: where the unreplicated
// battery (RunFaults) accepts "a surfaced error or a correct result",
// a replicated cluster with at least one surviving replica per
// partition group must return the bit-identical fault-free answer —
// crashes, cuts, truncations, and stragglers are absorbed, not
// reported. Only total loss of a group (the R=1 schedule) may error,
// and then it must do so cleanly within the hang-detector budget.
//
// Schedules, all on 4 workers × 2 groups unless noted:
//
//   - worker crash mid-partial-stream, rotating victims, health monitor
//     auto-revival between queries;
//   - connection cut then rejoin: per-victim scripts hard-close one
//     replica of each group mid-stream; every monitor redial re-arms
//     the script, so the cut repeats across revivals;
//   - mid-frame truncation with a short read watchdog: the stalled
//     stream must be diagnosed within the watchdog and failed over;
//   - crash + straggler: one group's primary delays every frame while
//     a worker of the other group crashes; speculation must duplicate
//     the straggling range and the battery must record spec launches;
//   - R=1 total loss: no replicas, victim crashes mid-stream — a clean
//     error (or a raced-ahead correct result), then full bit-identical
//     recovery after an explicit reconnect.
func RunFailover(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0xa4093822299f31d0))
	rows := 600 + int(rng.Uint64()%1200)
	parts := 4
	prefix := fmt.Sprintf("tkha%d", seed)
	tables, info := table.GenPartitions(prefix, seed, rows, parts)
	cfg := engine.Config{
		Parallelism:       2,
		AggregationWindow: time.Millisecond,
		ChunkRows:         200,
	}
	src := genSource(prefix, seed, rows, parts, 2)
	sks := instances(seed, info)

	// The expectation is the fault-free replicated run itself, anchored
	// against the reference topology so a systematically wrong cluster
	// cannot vouch for itself.
	want := make([]sketch.Result, len(sks))
	if err := withTimeout("fault-free baseline", func() error {
		h, err := startClusterOpts(4, cfg, nil, nil, cluster.Options{Replication: 2})
		if err != nil {
			return err
		}
		defer h.close()
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		defer cancel()
		ctx = tracedContext(ctx)
		if _, err := h.root.Load(datasetID, src); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		for i, sk := range sks {
			r, err := h.root.RunSketch(ctx, datasetID, sk, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", sk.Name(), err)
			}
			o, ok := sketch.OracleFor(sk)
			if !ok {
				return fmt.Errorf("no oracle for %s", sk.Name())
			}
			ref, err := reference(sk, tables)
			if err != nil {
				return fmt.Errorf("%s reference: %w", sk.Name(), err)
			}
			if err := o.CheckResult(sk, tables, ref, r); err != nil {
				return fmt.Errorf("%s: fault-free replicated run vs reference: %w", sk.Name(), err)
			}
			want[i] = r
		}
		return nil
	}); err != nil {
		return fmt.Errorf("failover seed %d: %w", seed, err)
	}

	type schedule struct {
		name   string
		budget time.Duration
		run    func() error
	}
	schedules := []schedule{
		{"crash mid-stream, rotating victims", 4 * runTimeout, func() error {
			return failoverCrashes(cfg, src, sks, want, parts)
		}},
		{"cut then rejoin", 4 * runTimeout, func() error {
			return failoverIdentical(cfg, src, sks, want, parts,
				func(addrs []string) cluster.Transport {
					return cluster.AddrFaultTransport{Scripts: map[string]cluster.FaultScript{
						addrs[0]: {Seed: seed ^ 0xc1, CutAfterFrames: 2 + int(rng.Uint64()%6)},
						addrs[1]: {Seed: seed ^ 0xc2, CutAfterFrames: 3 + int(rng.Uint64()%6)},
					}}
				},
				cluster.Options{Replication: 2, HealthInterval: 15 * time.Millisecond},
				nil)
		}},
		{"mid-frame truncation under watchdog", 4 * runTimeout, func() error {
			return failoverIdentical(cfg, src, sks, want, parts,
				func(addrs []string) cluster.Transport {
					return cluster.AddrFaultTransport{Scripts: map[string]cluster.FaultScript{
						addrs[0]: {Seed: seed ^ 0xb1, TruncateAfterFrames: 2 + int(rng.Uint64()%5)},
						addrs[1]: {Seed: seed ^ 0xb2, TruncateAfterFrames: 3 + int(rng.Uint64()%5)},
					}}
				},
				cluster.Options{Replication: 2, HealthInterval: 15 * time.Millisecond, FrameTimeout: 250 * time.Millisecond},
				nil)
		}},
		{"crash + straggler speculation", 4 * runTimeout, func() error {
			return failoverSpeculation(seed, cfg, src, sks, want, parts)
		}},
		// The R=1 schedule keeps the tight budget: promptness of the
		// clean error is the property under test.
		{"R=1 total loss errors cleanly, reconnect recovers", runTimeout, func() error {
			return totalLossThenRecover(cfg, src, sks[0], want[0], rng.Uint64()%2 == 0)
		}},
	}
	for _, s := range schedules {
		if err := withTimeoutFor(s.name, s.budget, s.run); err != nil {
			return fmt.Errorf("failover seed %d: %s: %w", seed, s.name, err)
		}
	}
	return nil
}

// awaitAllUp polls the replica map until every worker is back up (the
// monitor's revival), so the next scheduled fault always strikes a
// fully-redundant cluster — one crash per query, never an accidental
// double failure of a whole group.
func awaitAllUp(c *cluster.Cluster) error {
	deadline := time.Now().Add(runTimeout / 2)
	for {
		allUp := true
		for _, w := range c.Stats().Workers {
			if w.State != "up" {
				allUp = false
			}
		}
		if allUp {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("health monitor never revived all workers")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failoverCrashes runs every sketch with a rotating worker crashed from
// inside its partial stream; each result must be bit-identical to the
// fault-free run.
func failoverCrashes(cfg engine.Config, src string, sks []sketch.Sketch, want []sketch.Result, total int) error {
	h, err := startClusterOpts(4, cfg, nil, nil,
		cluster.Options{Replication: 2, HealthInterval: 15 * time.Millisecond})
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for i, sk := range sks {
		if err := awaitAllUp(h.cluster); err != nil {
			return fmt.Errorf("%s: %w", sk.Name(), err)
		}
		victim := h.workers[i%len(h.workers)]
		var once sync.Once
		log := &partialLog{}
		got, err := h.root.RunSketch(ctx, datasetID, sk, func(p engine.Partial) {
			log.add(p)
			once.Do(victim.Crash)
		})
		if err != nil {
			return fmt.Errorf("%s: crash was not absorbed: %w", sk.Name(), err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			return fmt.Errorf("%s: result differs from fault-free run", sk.Name())
		}
		if err := log.verify(total, got, false); err != nil {
			return fmt.Errorf("%s: %w", sk.Name(), err)
		}
	}
	if h.cluster.Stats().Reconnects == 0 {
		return fmt.Errorf("no worker revivals recorded across %d crashes", len(sks))
	}
	return nil
}

// failoverIdentical runs every sketch through a faulted replicated
// cluster and demands bit-identity with the fault-free run plus a sane
// merged partial stream.
func failoverIdentical(cfg engine.Config, src string, sks []sketch.Sketch, want []sketch.Result, total int,
	trFor func([]string) cluster.Transport, opts cluster.Options, prep func(*cluster.Worker)) error {
	h, err := startClusterOpts(4, cfg, trFor, prep, opts)
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for i, sk := range sks {
		log := &partialLog{}
		got, err := h.root.RunSketch(ctx, datasetID, sk, log.add)
		if err != nil {
			return fmt.Errorf("%s: fault was not absorbed: %w", sk.Name(), err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			return fmt.Errorf("%s: result differs from fault-free run", sk.Name())
		}
		if err := log.verify(total, got, false); err != nil {
			return fmt.Errorf("%s: %w", sk.Name(), err)
		}
	}
	return nil
}

// failoverSpeculation delays every frame of one group's primary while
// crashing a worker of the other group: failover covers the crash,
// speculative re-execution covers the straggler, and every answer must
// still be bit-identical. The schedule fails if speculation never
// launched — the knob must demonstrably engage.
func failoverSpeculation(seed uint64, cfg engine.Config, src string, sks []sketch.Sketch, want []sketch.Result, total int) error {
	h, err := startClusterOpts(4, cfg,
		func(addrs []string) cluster.Transport {
			return cluster.AddrFaultTransport{Scripts: map[string]cluster.FaultScript{
				addrs[0]: {Seed: seed ^ 0x5c, DelayProb: 1, MaxDelay: 120 * time.Millisecond},
			}}
		},
		nil,
		cluster.Options{
			Replication:    2,
			HealthInterval: 15 * time.Millisecond,
			SpecFactor:     3,
			SpecMinDelay:   30 * time.Millisecond,
		})
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	crashed := false
	for i, sk := range sks {
		got, err := h.root.RunSketch(ctx, datasetID, sk, func(engine.Partial) {
			if !crashed {
				crashed = true
				h.workers[1].Crash()
			}
		})
		if err != nil {
			return fmt.Errorf("%s: fault was not absorbed: %w", sk.Name(), err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			return fmt.Errorf("%s: result differs from fault-free run", sk.Name())
		}
	}
	if st := h.cluster.Stats(); st.SpecLaunches == 0 {
		return fmt.Errorf("straggling primary never triggered speculation: %+v", st)
	}
	return nil
}

// totalLossThenRecover is the R=1 half of the contract: with no
// replicas, crashing a worker mid-stream must surface a clean error (or
// a correct result that raced ahead) — never a hang — and an explicit
// reconnect must restore bit-identical service.
func totalLossThenRecover(cfg engine.Config, src string, probe sketch.Sketch, want sketch.Result, victimFirst bool) error {
	h, err := startClusterOpts(2, cfg, nil, nil, cluster.Options{})
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	victim := 1
	if victimFirst {
		victim = 0
	}
	var once sync.Once
	got, err := h.root.RunSketch(ctx, datasetID, probe, func(engine.Partial) {
		once.Do(h.workers[victim].Crash)
	})
	if err == nil && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("total loss raced a completion but the result is wrong")
	}
	// Recovery: redial the victim, drop the cached summary so the rerun
	// crosses the wire, and demand the fault-free answer.
	if err := h.cluster.ReconnectWorker(h.addrs[victim]); err != nil {
		return fmt.Errorf("reconnect: %w", err)
	}
	h.root.Cache().InvalidateDataset(datasetID)
	got2, err := h.root.RunSketch(ctx, datasetID, probe, nil)
	if err != nil {
		return fmt.Errorf("post-reconnect query: %w", err)
	}
	if !reflect.DeepEqual(got2, want) {
		return fmt.Errorf("post-reconnect result differs from fault-free run")
	}
	return nil
}
