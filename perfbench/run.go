package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// run checks and measures one workload: the reference truth first, then
// the untraced binary run (end-to-end metrics) or, with o.Trace, a
// shorter binary run followed by the traced in-process replay
// (per-layer metrics).
func run(ctx context.Context, w *Workload, o Options) (Result, error) {
	var gref *growData
	if w.Grow {
		var err error
		if gref, err = newGrowData(w, 0, false); err != nil {
			return Result{}, err
		}
	}
	want, err := expectations(ctx, w, gref)
	if err != nil {
		return Result{}, err
	}
	gref = nil
	runtime.GC() // the reference's rows are garbage from here on
	if o.Corrupt {
		corrupt(w.Traffic.Pool, want)
	}

	reps, bo := w.Scale.SetupReps, o
	if o.Trace {
		// The traced run splits its time: half untraced, half replayed.
		reps, bo.Seconds, o.Seconds = 1, o.Seconds/2, o.Seconds/2
	}
	br, err := binaryRun(ctx, w, bo, want, reps)
	if err != nil {
		return Result{}, err
	}
	bt := br.tally
	report("binary", bt, br.wrong)
	res := Result{
		Correct:   br.wrong == nil && bt.wrong == 0,
		Attempted: bt.attempted,
		Failed:    bt.failed,
		Metrics:   map[string]Metric{},
	}
	if !o.Trace {
		var setups []float64
		for _, s := range br.setups {
			setups = append(setups, s.Seconds())
		}
		lat := msList(durations(bt.lat))
		fmt.Printf("samples: %d queries, %d beyond p95; p90/p99 %.3f/%.3f ms; setups %v\n",
			len(lat), len(lat)-int(0.95*float64(len(lat))), quantile(lat, 0.9), quantile(lat, 0.99), setups)
		byClass := classMS(bt.lat)
		var classes []string
		for c := range byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf("class %-10s n=%5d p50=%9.3f ms p95=%9.3f ms\n", c, len(byClass[c]), quantile(byClass[c], 0.5), quantile(byClass[c], 0.95))
		}
		res.Metrics["setup_s"] = Metric{quantile(setups, 0.5), "s"}
		res.Metrics["latency_p50_ms"] = Metric{quantile(lat, 0.5), "ms"}
		res.Metrics["latency_p95_ms"] = Metric{quantile(lat, 0.95), "ms"}
		res.Metrics["queries_per_s"] = Metric{float64(len(lat)) / bt.elapsed.Seconds(), "1/s"}
		res.Metrics["peak_rss_mb"] = Metric{quantile(br.peakRSS, 0.5) / (1 << 20), "MiB"}
		return res, nil
	}

	tl, in, wrong, err := tracedRun(ctx, w, o, want)
	if err != nil {
		return Result{}, err
	}
	report("traced", tl, wrong)
	in.binary = bt
	res.Metrics = perLayer(in)
	res.Correct = res.Correct && wrong == nil && tl.wrong == 0
	res.Attempted += tl.attempted
	res.Failed += tl.failed
	if d := strings.Join(tl.digests, ","); d != strings.Join(bt.digests, ",") && o.Requests > 0 {
		return Result{}, fmt.Errorf("traced replay sent %s, binary run %s", d, strings.Join(bt.digests, ","))
	}
	return res, nil
}

// tracedRun sets up the in-process stack, checks its warm-up answers
// (wrong is the first that failed), and replays the timed traffic with
// the ledger on.
func tracedRun(ctx context.Context, w *Workload, o Options, want map[string]Expected) (tl *tally, in ledgerInput, wrong, err error) {
	dir, err := os.MkdirTemp(o.WorkDir, "traced-")
	if err != nil {
		return nil, in, nil, err
	}
	defer os.RemoveAll(dir)
	var g *growData
	if w.Grow {
		if g, err = newGrowData(w, appendCount(o), false); err != nil {
			return nil, in, nil, err
		}
	}
	tt, err := newTracedTarget(w, dir)
	if err != nil {
		return nil, in, nil, err
	}
	defer func() {
		if cerr := tt.close(); err == nil {
			err = cerr
		}
	}()
	answers, err := setUp(ctx, w, tt, g)
	if err != nil {
		return nil, in, nil, err
	}
	wrong = checkWarmUp(w, answers, want)
	tt.led.on.Store(true)
	in = ledgerInput{before: tt.snapshot(), clustered: w.Workers > 0}
	var send0, bytes0 int64
	if tt.tr != nil {
		send0, bytes0 = tt.tr.sendNS.Load(), tt.tr.in.Load()+tt.tr.out.Load()
	}
	tl = drive(ctx, w, tt, g, o)
	in.after = tt.snapshot()
	tt.led.on.Store(false)
	if tt.tr != nil {
		in.sendNS = tt.tr.sendNS.Load() - send0
		in.tcpBytes = tt.tr.in.Load() + tt.tr.out.Load() - bytes0
	}
	in.calls, in.spans = tt.calls, tt.led.spans
	return tl, in, wrong, nil
}

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.d
	}
	return out
}

// report prints a phase's request accounting and its request digests.
func report(phase string, t *tally, wrong error) {
	fmt.Printf("%s: attempted=%d failed=%d wrong=%d error_frac=%.6f sent=%s\n",
		phase, t.attempted, t.failed, t.wrong, ratio(float64(t.failed), float64(t.attempted)), strings.Join(t.digests, ","))
	if wrong != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s warm-up answer check failed: %v\n", phase, wrong)
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s first failure: %v\n", phase, t.firstErr)
	}
}
