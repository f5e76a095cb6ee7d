package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range.
type interval struct{ a, b time.Time }

// coverage is the total length of the union of ivs, clipped to within.
func coverage(ivs []interval, within interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.a.Before(within.a) {
			iv.a = within.a
		}
		if iv.b.After(within.b) {
			iv.b = within.b
		}
		if iv.b.After(iv.a) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a.Before(clipped[j].a) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.a.After(cur.b):
			if iv.b.After(cur.b) {
				cur.b = iv.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTime is how much of the union of outer is not covered by inner.
func selfTime(outer, inner []interval, within interval) time.Duration {
	u := coverage(outer, within)
	var both []interval
	for _, o := range outer {
		for _, in := range inner {
			a, b := o.a, o.b
			if in.a.After(a) {
				a = in.a
			}
			if in.b.Before(b) {
				b = in.b
			}
			if b.After(a) {
				both = append(both, interval{a, b})
			}
		}
	}
	return u - coverage(both, within)
}

// query is one replayed request with the spans attributed to it.
type query struct {
	call  span
	spans map[string][]span // by layer
}

func (q *query) ivs(layers ...string) []interval {
	var out []interval
	for _, l := range layers {
		for _, s := range q.spans[l] {
			out = append(out, interval{s.start, s.end})
		}
	}
	return out
}

// attribute groups spans by request. Spans whose context carried a
// request trace go to that request; the rest (Map, LeafSource and load
// calls, which take no context) go to the one request whose call
// interval contains their start, if exactly one does.
func attribute(calls, spans []span) []*query {
	qs := make([]*query, len(calls))
	byID := map[string]*query{}
	for i, c := range calls {
		qs[i] = &query{call: c, spans: map[string][]span{}}
		byID[c.req] = qs[i]
	}
	for _, s := range spans {
		q := byID[s.req]
		if q == nil {
			var hit []*query
			for _, c := range qs {
				if !s.start.Before(c.call.start) && s.start.Before(c.call.end) {
					hit = append(hit, c)
				}
			}
			if len(hit) != 1 {
				continue
			}
			q = hit[0]
		}
		q.spans[s.layer] = append(q.spans[s.layer], s)
	}
	return qs
}

// leafKinds are the sketch kinds reported as leaf.ms.<kind>.
var leafKinds = []string{"histogram", "range", "hist2d", "nextk", "heavyhitters", "distinct", "multi"}

// ledgerInput is everything the per-layer metrics derive from.
type ledgerInput struct {
	calls, spans     []span
	before, after    counters
	sendNS, tcpBytes int64  // transport seam totals over the timed phase
	binary           *tally // untraced phase of the same run
	clustered        bool
}

// perLayer computes the per-layer ledger.
func perLayer(in ledgerInput) map[string]Metric {
	m := map[string]Metric{}
	set := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }
	qs := attribute(in.calls, in.spans)
	n := float64(len(qs))

	leafLayer := "root.sketch"
	if in.clustered {
		leafLayer = "worker.sketch"
	}
	var (
		sheetSelf, serveWait, engineSelf, rpcSelf, leafScan, filterMS, acquireMS []float64
		totalW, totalGap                                                         time.Duration
		sketches                                                                 int
		byKind                                                                   = map[string][]float64{}
		skew                                                                     []float64
		leafNS, leafRows                                                         float64
	)
	for _, q := range qs {
		w := interval{q.call.start, q.call.end}
		W := q.call.dur()
		sr := q.ivs("spreadsheet.runner")
		sketches += len(sr)
		top := q.ivs("spreadsheet.runner", "root.map", "root.load")
		gap := W - coverage(top, w)
		totalW += W
		totalGap += gap
		sheetSelf = append(sheetSelf, ms(gap))
		serveWait = append(serveWait, ms(selfTime(sr, q.ivs("serve.runner"), w)))
		engineSelf = append(engineSelf, ms(selfTime(q.ivs("serve.runner"), q.ivs("root.sketch", "root.load"), w)))
		if in.clustered {
			rpcSelf = append(rpcSelf, ms(selfTime(q.ivs("root.sketch"), q.ivs("worker.sketch"), w)))
		}
		leafScan = append(leafScan, ms(coverage(q.ivs(leafLayer), w)))
		if maps := q.spans["worker.map"]; in.clustered && len(maps) > 0 {
			filterMS = append(filterMS, ms(maxDur(maps)))
		} else if maps := q.spans["root.map"]; !in.clustered && len(maps) > 0 {
			filterMS = append(filterMS, ms(maxDur(maps)))
		}
		if acq := q.spans["leaf.acquire"]; len(acq) > 0 {
			var t time.Duration
			for _, s := range acq {
				t += s.dur()
			}
			acquireMS = append(acquireMS, ms(t))
		}
		// Fan-outs: each root-side Sketch and the worker-side Sketches
		// that ran inside it.
		for _, r := range q.spans["root.sketch"] {
			fan := []span{r}
			if in.clustered {
				fan = nil
				for _, s := range q.spans["worker.sketch"] {
					if !s.start.Before(r.start) && !s.end.After(r.end) {
						fan = append(fan, s)
					}
				}
			}
			if len(fan) == 0 {
				continue
			}
			byKind[r.kind] = append(byKind[r.kind], ms(maxDur(fan)))
			if len(fan) > 1 {
				skew = append(skew, ratio(float64(maxDur(fan)), float64(minDur(fan))))
			}
		}
		for _, s := range q.spans[leafLayer] {
			leafNS += float64(s.dur())
			leafRows += float64(s.rows)
		}
	}

	// http: the untraced binary latency minus the traced Sheet call,
	// per request class, weighted by the class's share of requests.
	binByClass := classMS(in.binary.lat)
	trByClass := map[string][]float64{}
	for _, c := range in.calls {
		trByClass[c.kind] = append(trByClass[c.kind], ms(c.dur()))
	}
	var resid, weight float64
	for class, tr := range trByClass {
		if b := binByClass[class]; len(b) > 0 {
			resid += float64(len(tr)) * (quantile(b, 0.5) - quantile(tr, 0.5))
			weight += float64(len(tr))
		}
	}
	set("http.residual_ms_p50", "ms", ratio(resid, weight))
	set("http.response_bytes_per_query", "B", ratio(float64(in.binary.bytes), float64(len(in.binary.lat))))

	set("spreadsheet.sketches_per_query", "count", ratio(float64(sketches), n))
	set("spreadsheet.self_ms_p50", "ms", quantile(sheetSelf, 0.5))

	d := func(f func(c counters) int64) float64 { return float64(f(in.after) - f(in.before)) }
	set("serve.wait_ms_p50", "ms", quantile(serveWait, 0.5))
	set("serve.execs_per_query", "count", ratio(d(func(c counters) int64 { return c.serve.Execs }), n))
	set("serve.batch_members_per_batch", "count", ratio(d(func(c counters) int64 { return c.serve.BatchMembers }), d(func(c counters) int64 { return c.serve.BatchesFormed })))
	set("serve.dedup_joins", "count", d(func(c counters) int64 { return c.serve.DedupJoins }))
	set("serve.shed", "count", d(func(c counters) int64 { return c.serve.Shed }))

	hits, miss := d(func(c counters) int64 { return c.cacheHits }), d(func(c counters) int64 { return c.cacheMiss })
	set("engine.self_ms_p50", "ms", quantile(engineSelf, 0.5))
	set("engine.cache_hit_ratio", "ratio", ratio(hits, hits+miss))
	var loads []float64
	var loadBytes float64
	for _, s := range in.spans {
		if s.layer == "root.load" {
			loads = append(loads, ms(s.dur()))
			loadBytes += float64(s.bytes)
		}
	}
	set("engine.loads_per_query", "count", ratio(float64(len(loads)), n))
	set("engine.load_ms_p50", "ms", quantile(loads, 0.5))

	set("cluster.rpc_self_ms_p50", "ms", quantile(rpcSelf, 0.5))
	set("wire.bytes_per_query", "B", ratio(float64(in.tcpBytes), n))
	set("wire.frames_per_query", "count", ratio(d(func(c counters) int64 { return c.wire.FramesIn + c.wire.FramesOut }), n))
	set("wire.codec_us_per_query", "us", ratio(d(func(c counters) int64 { return c.wire.EncodeNS + c.wire.DecodeNS })/1e3, n))
	set("wire.send_us_per_query", "us", ratio(float64(in.sendNS)/1e3, n))
	set("cluster.retries", "count", d(func(c counters) int64 { return c.cluster.Retries }))
	set("cluster.spec_launches", "count", d(func(c counters) int64 { return c.cluster.SpecLaunches }))

	set("leaf.scan_ms_p50", "ms", quantile(leafScan, 0.5))
	set("leaf.ns_per_row", "ns", ratio(leafNS, leafRows))
	for _, k := range leafKinds {
		set("leaf.ms."+k, "ms", quantile(byKind[k], 0.5))
	}
	set("leaf.worker_skew", "ratio", quantile(skew, 0.5))
	set("expr.filter_ms_p50", "ms", quantile(filterMS, 0.5))

	ph, pm := d(func(c counters) int64 { return c.pool.Hits }), d(func(c counters) int64 { return c.pool.Misses })
	set("colstore.hit_ratio", "ratio", ratio(ph, ph+pm))
	set("colstore.evictions_per_query", "count", ratio(d(func(c counters) int64 { return c.pool.Evictions }), n))
	set("colstore.acquire_ms_p50", "ms", quantile(acquireMS, 0.5))
	set("colstore.resident_mb", "MiB", float64(in.after.pool.Resident)/(1<<20))

	var appendMS, sealMS []float64
	for _, s := range in.spans {
		switch s.layer {
		case "ingest.append":
			appendMS = append(appendMS, ms(s.dur()))
		case "ingest.seal":
			sealMS = append(sealMS, ms(s.dur()))
		}
	}
	seals := d(func(c counters) int64 { return c.seals })
	set("ingest.append_ms_p50", "ms", quantile(appendMS, 0.5))
	set("ingest.seal_ms_p50", "ms", quantile(sealMS, 0.5))
	var ingestLoads []float64
	for _, s := range in.spans {
		if s.layer == "root.load" && s.bytes > 0 {
			ingestLoads = append(ingestLoads, ms(s.dur()))
		}
	}
	set("ingest.load_ms_p50", "ms", quantile(ingestLoads, 0.5))
	set("ingest.bytes_loaded_per_seal", "B", ratio(loadBytes, seals))

	set("trace.unattributed_frac", "ratio", ratio(float64(totalGap), float64(totalW)))
	set("trace.queries", "count", n)

	// End-to-end figures of the untraced phase that not every workload
	// has, so they cannot be gated end-to-end metrics.
	b := in.binary
	set("gen.lateness_ms_p95", "ms", quantile(msList(b.lateness), 0.95))
	set("e2e.error_frac", "ratio", ratio(float64(b.failed), float64(b.attempted)))
	set("e2e.fresh_query_p50_ms", "ms", quantile(msList(b.fresh), 0.5))
	set("e2e.append_p50_ms", "ms", quantile(msList(b.appends), 0.5))
	set("e2e.seal_p50_ms", "ms", quantile(msList(b.seals), 0.5))
	return m
}

func maxDur(ss []span) time.Duration {
	var m time.Duration
	for _, s := range ss {
		if s.dur() > m {
			m = s.dur()
		}
	}
	return m
}

func minDur(ss []span) time.Duration {
	m := ss[0].dur()
	for _, s := range ss[1:] {
		if s.dur() < m {
			m = s.dur()
		}
	}
	return m
}

func classMS(lat []sample) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range lat {
		out[s.class] = append(out[s.class], ms(s.d))
	}
	return out
}
