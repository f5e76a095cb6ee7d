// Package obs is the zero-dependency observability layer: lock-cheap
// metrics (counters, gauges, log-linear latency histograms) collected
// in a Registry that renders Prometheus exposition text, plus
// per-query traces carried through context.Context and over the
// cluster wire.
//
// # Conventions (mirrored in ROADMAP.md)
//
//   - Metric names render as hillview_<group>_<name>; group and name
//     are snake_case. Counters end in _total; histograms record
//     nanoseconds and render as _seconds with sparse cumulative le
//     buckets.
//   - Every Registry group names the /api/status section that carries
//     the same numbers, so the status JSON and /metrics can never
//     drift apart silently (TestStatusMetricsDrift pins it).
//   - New subsystems register their telemetry through obs — ad-hoc
//     int64 counters read under a mutex are exactly what this package
//     replaces. Counter, Gauge, and Histogram are atomic and their
//     zero values are ready to use, so they embed directly where a
//     bare int64 used to sit.
//
// # Span taxonomy
//
// One query owns one Trace; every layer annotates it via
// TraceFrom(ctx). Span names are <subsystem>.<stage>:
//
//	http.<endpoint>      the whole request, opened by the traced middleware
//	serve.queue          admission wait (note "rejected" when shed)
//	serve.exec           scheduler slot held, engine running
//	serve.batch_window   waiting for the scan batch to form (note members=N)
//	serve.dedup_join     annotation: joined an identical in-flight query
//	engine.cache_hit     annotation: served from the computation cache
//	engine.replay_retry  annotation: redo-log replay before retrying
//	scan.leaf            one leaf pass over all chunks (note chunks= stripes= workers=)
//	scan.chunk           a single chunk task, 1-in-16 sampled
//	merge.tree           the pairwise accumulator merge
//	wire.call            root-side RPC to one worker (note = worker addr)
//	worker.sketch        worker-side execution, shipped back and stitched
//	replica.*            failover / speculate / spec_win / group_lost events
//
// All Trace methods are nil-safe: an untraced query pays one nil check
// per instrumentation point. Spans are bounded per trace (the drop
// count is recorded); finished traces land in the Tracer's bounded
// ring, served at /api/trace/<id>, and queries slower than the
// configured threshold emit a single-line slow-query log with full
// repro info (trace ID, dataset, sketch kind and parameters, stage
// breakdown).
//
// Traces cross the process boundary via the cluster frame codec's
// flagTrace section: the TraceID rides the request, the worker runs
// under a detached Trace, and its spans return on the final frame
// where Stitch rebases them onto the root's wire.call span.
package obs
