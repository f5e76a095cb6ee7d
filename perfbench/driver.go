package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/table"
)

// target is one deployment the benchmark drives: the binaries over HTTP
// (httpTarget) or the traced in-process stack (tracedTarget).
type target interface {
	loadView(ctx context.Context, source string) (rows int64, err error)
	createGrow(ctx context.Context) error
	appendBatch(ctx context.Context, b *growBatch) error
	seal(ctx context.Context) error
	send(ctx context.Context, client int, r Request) (Answer, error)
}

// httpTarget drives a launched cmd/hillview root over its HTTP API.
type httpTarget struct {
	base    string
	client  *http.Client
	derived atomic.Int64
}

func newHTTPTarget(addr string, conns int) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpTarget{base: "http://" + addr, client: &http.Client{Transport: tr}}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

func (h *httpTarget) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

func (h *httpTarget) loadView(ctx context.Context, source string) (int64, error) {
	body, err := h.do(ctx, "GET", "/api/load?"+url.Values{"name": {viewName}, "source": {source}}.Encode(), nil)
	if err != nil {
		return 0, err
	}
	var v struct{ Rows int64 }
	err = json.Unmarshal(body, &v)
	return v.Rows, err
}

func (h *httpTarget) createGrow(ctx context.Context) error {
	_, err := h.do(ctx, "POST", "/api/ingest?"+url.Values{"op": {"create"}, "name": {growName}, "schema": {growSchema}}.Encode(), nil)
	return err
}

func (h *httpTarget) appendBatch(ctx context.Context, b *growBatch) error {
	_, err := h.do(ctx, "POST", "/api/ingest?op=append&name="+growName, b.body)
	return err
}

func (h *httpTarget) seal(ctx context.Context) error {
	_, err := h.do(ctx, "POST", "/api/ingest?op=seal&name="+growName, nil)
	return err
}

func (h *httpTarget) send(ctx context.Context, client int, r Request) (Answer, error) {
	view, derived := viewName, ""
	var filtered struct{ Rows int64 }
	var pre int
	if r.Kind == "filterhist" {
		derived = fmt.Sprintf("d%d", h.derived.Add(1))
		body, err := h.do(ctx, "GET", r.FilterURL(view, derived), nil)
		if err != nil {
			return Answer{}, err
		}
		if err := json.Unmarshal(body, &filtered); err != nil {
			return Answer{}, err
		}
		pre = len(body)
	}
	body, err := h.do(ctx, "GET", r.URL(view, derived), nil)
	if err != nil {
		return Answer{}, err
	}
	a, err := parseAnswer(r, body)
	a.Rows += filtered.Rows
	a.Bytes += pre
	return a, err
}

// tally collects one timed phase's samples; record serializes access.
type tally struct {
	mu        sync.Mutex
	lat       []sample
	fresh     []time.Duration
	appends   []time.Duration
	seals     []time.Duration
	lateness  []time.Duration
	attempted int
	failed    int
	wrong     int // answers that failed their checks (also counted in failed)
	bytes     int64
	firstErr  error
	digests   []string
	elapsed   time.Duration
}

type sample struct {
	class string
	d     time.Duration
}

func (t *tally) record(f func(*tally)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(t)
}

// absorb adds the samples and counts of u, a later phase, to t.
// Digests are per client, one per phase, joined with "+".
func (t *tally) absorb(u *tally) {
	t.lat = append(t.lat, u.lat...)
	t.fresh = append(t.fresh, u.fresh...)
	t.appends = append(t.appends, u.appends...)
	t.seals = append(t.seals, u.seals...)
	t.lateness = append(t.lateness, u.lateness...)
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
	t.bytes += u.bytes
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
	for c, d := range u.digests {
		if c < len(t.digests) {
			t.digests[c] += "+" + d
		} else {
			t.digests = append(t.digests, d)
		}
	}
	t.elapsed += u.elapsed
}

// fail counts a failed request; callers hold t.mu.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// setUp loads the workload's data into t and sends the warm-up pass:
// every pool shape once, in pool order. For grow, the base batches are
// appended and sealed first.
func setUp(ctx context.Context, w *Workload, t target, g *growData) ([]Answer, error) {
	if w.Grow {
		if err := t.createGrow(ctx); err != nil {
			return nil, err
		}
		for _, b := range g.base {
			if err := t.appendBatch(ctx, b); err != nil {
				return nil, err
			}
			if err := t.seal(ctx); err != nil {
				return nil, err
			}
		}
	} else {
		rows, err := t.loadView(ctx, w.Source)
		if err != nil {
			return nil, err
		}
		if rows != w.Rows {
			return nil, fmt.Errorf("load reports %d rows, want %d", rows, w.Rows)
		}
	}
	answers := make([]Answer, len(w.Traffic.Pool))
	for i, r := range w.Traffic.Pool {
		a, err := t.send(ctx, 0, r)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.Class, err)
		}
		answers[i] = a
	}
	return answers, nil
}

// drive runs the timed phase on t: every client's closed loop (and, for
// grow, the open-loop appender) until the deadline, or until each client
// sent o.Requests requests.
func drive(ctx context.Context, w *Workload, t target, g *growData, o Options) *tally {
	tl := &tally{digests: make([]string, w.Clients)}
	start := time.Now()
	deadline := start.Add(time.Duration(o.Seconds * float64(time.Second)))
	if o.Requests > 0 {
		deadline = start.Add(time.Hour)
	}
	var st *growState
	var wg sync.WaitGroup
	if w.Grow {
		st = &growState{base: w.Rows, step: int64(sealEvery * w.Scale.AppendRows), sealed: w.Rows}
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendLoop(ctx, t, g, st, deadline, tl)
		}()
	}
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := w.Traffic.Clients[c]
			var dig sentDigest
			for i := 0; ; i++ {
				if (o.Requests > 0 && i >= o.Requests) || (o.Requests == 0 && time.Now().After(deadline)) {
					break
				}
				r := seq[i%len(seq)]
				dig.add(r)
				var fresh bool
				var sealed0 int64
				if st != nil {
					sealed0, fresh = st.start()
				}
				s := time.Now()
				a, err := t.send(ctx, c, r)
				d := time.Since(s)
				var bad error
				if err == nil {
					rc := staticRows(w.Rows)
					if st != nil {
						rc = st.rows(sealed0)
					}
					bad = checkCheap(r, a, rc)
				}
				tl.record(func(tl *tally) {
					tl.attempted++
					if bad != nil {
						tl.wrong++
						err = bad
					}
					if err != nil {
						tl.fail(err)
						return
					}
					tl.lat = append(tl.lat, sample{r.Class, d})
					tl.bytes += int64(a.Bytes)
					if fresh {
						tl.fresh = append(tl.fresh, d)
					}
				})
			}
			tl.record(func(tl *tally) { tl.digests[c] = dig.String() })
		}(c)
	}
	wg.Wait()
	tl.elapsed = time.Since(start)
	return tl
}

// expectations computes the reference truth for the workload's pool,
// over the same data the program serves.
func expectations(ctx context.Context, w *Workload, g *growData) (map[string]Expected, error) {
	var load engine.Loader
	if w.Grow {
		parts, err := g.baseTables()
		if err != nil {
			return nil, err
		}
		load = func(id, _ string) (engine.IDataSet, error) { return engine.NewLocal(id, parts, engine.Config{}), nil }
	} else {
		load = func(id, source string) (engine.IDataSet, error) {
			var parts []*table.Table
			for g := 0; g < w.Workers; g++ {
				ps, err := storage.LoadSource(cluster.ExpandSource(source, g), fmt.Sprintf("%s-%d", id, g), 0)
				if err != nil {
					return nil, err
				}
				parts = append(parts, ps...)
			}
			return engine.NewLocal(id, parts, engine.Config{}), nil
		}
	}
	ref, err := newReference(ctx, load, w.Source)
	if err != nil {
		return nil, err
	}
	return ref.expectAll(ctx, w.Traffic.Pool)
}

// checkWarmUp compares every warm-up answer with the reference.
func checkWarmUp(w *Workload, answers []Answer, want map[string]Expected) error {
	for i, r := range w.Traffic.Pool {
		if err := checkFull(r, answers[i], want[r.Shape()]); err != nil {
			return err
		}
	}
	return nil
}

// corrupt falsifies one expected answer, to prove the checks bite: the
// pool's first table page or row count, whose truth is exact.
func corrupt(pool []Request, want map[string]Expected) {
	for _, r := range pool {
		if r.Kind == "table" || r.Kind == "meta" {
			e := want[r.Shape()]
			e.Rows++
			e.Total++
			want[r.Shape()] = e
			return
		}
	}
}

// binaryRun is the untraced end-to-end measurement: reps launches of
// fresh processes, each with its set-up, answer checks, an equal share
// of the timed phase, then teardown with a leak check. Timing every
// launch pools their samples, so the state one launch happens to start
// in (process placement, GC pacing, clients' phase against the batch
// window) weighs a third as much as when one launch is timed.
func binaryRun(ctx context.Context, w *Workload, o Options, want map[string]Expected, reps int) (*binaryResult, error) {
	seg := o
	if o.Requests == 0 {
		seg.Seconds = o.Seconds / float64(reps)
	}
	var g *growData
	if w.Grow {
		var err error
		if g, err = newGrowData(w, appendCount(seg), true); err != nil {
			return nil, err
		}
	}
	res := &binaryResult{tally: &tally{}}
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(o.WorkDir, "run-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := launch(w, o.BinDir, dir)
		if err != nil {
			return nil, fmt.Errorf("%w (logs: %s)", err, filepath.Join(dir, "*.log"))
		}
		ht := newHTTPTarget(c.root, max(w.Clients, 2))
		answers, err := setUp(ctx, w, ht, g)
		res.setups = append(res.setups, time.Since(start))
		if err == nil && res.wrong == nil {
			res.wrong = checkWarmUp(w, answers, want)
		}
		if err == nil {
			res.tally.absorb(drive(ctx, w, ht, g, seg))
			res.peakRSS = append(res.peakRSS, float64(c.peakRSS()))
		}
		ht.close()
		if serr := c.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("%w (logs: %s)", err, filepath.Join(dir, "*.log"))
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type binaryResult struct {
	setups  []time.Duration
	tally   *tally    // the timed phases of every launch
	peakRSS []float64 // bytes, per launch
	wrong   error     // first warm-up answer that failed its reference check
}

func appendCount(o Options) int {
	if o.Requests > 0 {
		return sealEvery
	}
	return int(o.Seconds*appendsPerSecond) + sealEvery
}
