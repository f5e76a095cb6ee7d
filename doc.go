// Package repro is a from-scratch Go reproduction of Hillview (Budiu et
// al., "Hillview: A trillion-cell spreadsheet for big data", VLDB 2019):
// a distributed spreadsheet built on vizketches — mergeable summaries
// whose precision derives from the display resolution — and a
// specialized execution engine that runs them over trees of workers
// with progressive results, computation caching, and redo-log fault
// tolerance.
//
// The public surface lives in the internal packages (this module is a
// reproduction artifact, not a published library API):
//
//   - internal/table — columnar tables, membership sets, sampling
//   - internal/sketch — the vizketch library
//   - internal/engine — execution trees, caches, redo log
//   - internal/colstore — memory-mapped column store + budgeted pool
//   - internal/cluster — the TCP worker protocol
//   - internal/spreadsheet — the user-facing operations
//   - internal/bench — the paper's evaluation, regenerated
//
// Leaf scans are vectorized end to end ("as fast as the hardware
// allows", paper §6): memberships iterate in spans or bulk-decoded row
// batches, columns expose typed backing storage, sketches run
// kind-specialized batch kernels, and the engine shards oversized
// partitions into fixed row-range chunks. Aggregation is parallel all
// the way up: a pool of leaf workers drains the chunk queue, each
// folding its chunks into a reusable mutable Accumulator
// (sketch.AccumulatorSketch — histogram, hist2d, range, distinct, and
// heavy hitters ship one) or a private Merge fold, and the per-worker
// states combine in a pairwise merge tree, so no chunk result ever
// crosses a shared lock. Progressive partials merge snapshots of every
// worker's state and reach the callback serialized on a dedicated
// emission lock, never blocking the fold path. Heavy
// hitters count dictionary columns by int32 code (dense array or
// code-keyed map) and materialize Values only at result time;
// equi-width buckets index by a precomputed reciprocal whenever the
// multiplication form is verified against the division form at every
// bucket boundary. Batch scans are bit-identical to the retained
// row-at-a-time reference path — including randomized sketches under a
// fixed seed, via per-chunk seeds derived from (seed, chunk start).
// Kernel before/after numbers: BENCH_kernels.json.
//
// Leaf column data is evictable soft state served by a memory-mapped
// column store (internal/colstore; paper §3.5, §5.5, §5.7): the HVC2
// file layout stores fixed-width payloads raw, little-endian, and
// 64-byte aligned with a CRC32-C per block, so mapped blocks
// reinterpret in place as the ordinary typed columns the kernels
// already scan — zero decode, zero copy, zero per-scan allocation. A
// budgeted buffer pool (colstore.Pool) materializes columns lazily on
// first touch, pins them for the duration of a scan task, and evicts
// LRU unpinned columns past a configurable budget (workers:
// -pool-budget / HILLVIEW_POOL_BUDGET), releasing OS pages without
// invalidating the mapping, so datasets much larger than RAM scan
// correctly — the testkit pooled differential runs every shipped
// sketch under a budget of ~25% of the data and demands bit-identical
// results to the fully-heap-loaded path. The engine reaches the store
// through engine.LeafSource (lazy partitions, acquired per chunk task,
// restricted to the columns a sketch declares via sketch.ColumnUser);
// legacy HVC1 files keep working through the decode path and gained a
// CRC32-C footer of their own.
//
// Datasets grow while users watch (internal/ingest): writers append
// row batches into an open segment that seals into an immutable HVC2
// partition through a write-temp → fsync → rename → fsync(dir) →
// manifest-append+fsync protocol whose final step — a CRC32-C-framed
// record in the dataset manifest — is the atomic commit point. Recovery
// replays the manifest, truncates at the first torn record, verifies
// every referenced partition, and removes orphans, so a crash at any
// instant yields a consistent sealed prefix of what was acknowledged.
// Each append bumps a dataset generation counter that qualifies the
// engine's computation cache and the scheduler's dedup/batch keys —
// stale entries are invalidated exactly, unaffected datasets keep
// their cache. Standing queries exploit sketch mergeability: a
// registered sketch re-merges only newly sealed partitions into its
// running result instead of rescanning (ingest.Standing).
// cmd/hillview serves this at /api/ingest and /api/standing
// (-ingest-dir), and both servers drain gracefully on SIGTERM —
// in-flight queries finish under a deadline, open segments seal, late
// requests get a clean retryable error. testkit.RunIngest is the
// correctness net: every append-schedule prefix must be bit-identical
// to a from-scratch run, and a crash-point battery replays truncated
// operation sequences proving recovery never loses an acknowledged
// seal nor resurrects an unacknowledged one.
//
// Correctness is guarded by a deterministic chaos harness
// (internal/testkit): from a single seed it generates randomized
// tables over every column kind, missing mask, dictionary size, and
// membership shape (table.GenPartitions), then pushes every shipped
// sketch through three execution topologies — reference
// Summarize+sequential merge, the parallel accumulator engine (whose
// fixed stripe merge shape makes every run reproducible), and the real TCP
// cluster path — and asserts agreement under per-sketch oracle
// contracts (sketch.RegisterOracle: exact for deterministic sketches,
// documented error bounds for Misra–Gries and sampling sketches). A
// transport seam (cluster.Transport / cluster.FaultScript) then drives
// the distributed path through scripted frame delays, mid-frame
// stalls, duplicated partials, connection cuts, and worker crash
// mid-sketch: non-destructive faults must be invisible, destructive
// ones must surface as errors — never a hang, never a silently wrong
// answer. Wire-facing decoders (the cluster frame codec, the HVC
// reader) carry fuzz targets with checked-in corpora; malformed input
// errors, never panics. CI runs the harness under -race with rotating
// seeds, and every randomized test logs its seed on failure
// (internal/testkit/seedtest).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results. The benchmarks in
// bench_test.go regenerate each evaluation artifact at test scale;
// cmd/hillview-bench runs them at configurable scale.
package repro
