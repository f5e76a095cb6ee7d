package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

func testServer(t *testing.T) *server {
	return testServerViews(t, 0)
}

// testServerViews builds an in-process server with the given derived-
// view cap (0 = unlimited).
func testServerViews(t *testing.T, maxViews int) *server {
	t.Helper()
	flights.Register()
	pool := colstore.NewPool(0)
	dcache := storage.NewDataCache(0)
	loader := storage.NewLoaderWith(engine.Config{AggregationWindow: -1},
		storage.LoaderOpts{Pool: pool, Cache: dcache})
	s := newServer(engine.NewRoot(loader), serve.Config{Deadline: -1}, maxViews)
	s.attachEnv(pool, dcache, nil)
	return s
}

func get(t *testing.T, h http.HandlerFunc, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	var body map[string]any
	if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, body
}

func TestParseOrder(t *testing.T) {
	o, err := parseOrder("+A,-B,C")
	if err != nil {
		t.Fatal(err)
	}
	if len(o) != 3 || !o[0].Ascending || o[1].Ascending || !o[2].Ascending {
		t.Fatalf("order = %v", o)
	}
	if _, err := parseOrder(""); err == nil {
		t.Error("empty order should fail")
	}
}

func TestLoadMetaTableEndpoints(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	if body["rows"].(float64) != 5000 {
		t.Errorf("rows = %v", body["rows"])
	}
	rec, body = get(t, s.handleMeta, "/api/meta?view=fl")
	if rec.Code != http.StatusOK || body["schema"] == nil {
		t.Fatalf("meta: %d", rec.Code)
	}
	rec, body = get(t, s.handleTable, "/api/table?view=fl&order=-DepDelay&extra=Carrier&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("table: %d %s", rec.Code, rec.Body.String())
	}
	if rows := body["rows"].([]any); len(rows) != 5 {
		t.Errorf("rows = %d", len(rows))
	}
	// Error paths.
	rec, _ = get(t, s.handleMeta, "/api/meta?view=ghost")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("ghost view: %d", rec.Code)
	}
	rec, _ = get(t, s.handleLoad, "/api/load?name=only")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing source: %d", rec.Code)
	}
}

// TestStatusEndpoint checks the soft-state stats surface: computation
// cache, data cache, and column pool all report.
func TestStatusEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	for _, key := range []string{"computationCache", "dataCache", "columnPool", "replays"} {
		if _, ok := body[key]; !ok {
			t.Errorf("status missing %q: %v", key, body)
		}
	}
	cc := body["computationCache"].(map[string]any)
	if cc["hits"].(float64)+cc["misses"].(float64) == 0 {
		t.Errorf("computation cache never consulted: %v", cc)
	}
}

// TestStatusEndpointClusterWire checks that in cluster mode the status
// endpoint reports per-connection wire counters: bytes and frames in
// each direction plus encode/decode time — the observability behind the
// binary codec's bandwidth claims.
func TestStatusEndpointClusterWire(t *testing.T) {
	flights.Register()
	w := cluster.NewWorker(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	clu, err := cluster.Connect([]string{addr}, engine.Config{AggregationWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	s := newServer(engine.NewRoot(clu.Loader()), serve.Config{Deadline: -1}, 0)
	s.attachEnv(nil, nil, clu)
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1"); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	conns, ok := body["wire"].([]any)
	if !ok || len(conns) != 1 {
		t.Fatalf("wire section missing or wrong size: %v", body["wire"])
	}
	c0 := conns[0].(map[string]any)
	if c0["worker"].(string) != addr {
		t.Errorf("worker = %v, want %s", c0["worker"], addr)
	}
	for _, key := range []string{"bytesIn", "bytesOut", "framesIn", "framesOut", "encodeNs", "decodeNs"} {
		if v, ok := c0[key].(float64); !ok || v <= 0 {
			t.Errorf("wire counter %q did not move: %v", key, c0[key])
		}
	}
}

func TestHistogramEndpointStreamsNDJSON(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=20000,parts=8,seed=2"); rec.Code != 200 {
		t.Fatal(rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/api/histogram?view=fl&col=DepDelay&bars=20&cdf=1", nil)
	rec := httptest.NewRecorder()
	s.handleHistogram(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 1 {
		t.Fatal("no NDJSON lines")
	}
	// The last line is the final summary with buckets and cdf.
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final["partial"] != false {
		t.Errorf("last line should be final: %v", final)
	}
	if counts := final["counts"].([]any); len(counts) != 20 {
		t.Errorf("bars = %d", len(counts))
	}
	if final["cdf"] == nil {
		t.Error("cdf missing")
	}
}

func TestFilterAndHeavyHittersEndpoints(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=10000,parts=2,seed=3")
	rec, body := get(t, s.handleFilter, `/api/filter?view=fl&name=ua&expr=Carrier=="UA"`)
	if rec.Code != http.StatusOK {
		t.Fatalf("filter: %d %s", rec.Code, rec.Body.String())
	}
	if body["rows"].(float64) <= 0 {
		t.Error("empty filter result")
	}
	req := httptest.NewRequest("GET", "/api/heavyhitters?view=ua&col=Carrier&k=5", nil)
	rec = httptest.NewRecorder()
	s.handleHeavyHitters(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("hh: %d", rec.Code)
	}
	var items []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0]["value"] != "UA" {
		t.Errorf("items = %v", items)
	}
	// A builtin over an argument of the wrong kind is a bind error, a 400.
	for _, e := range []string{`sqrt(Origin) > 1`, `min(Origin, 3) == "SFO"`, `substr(Origin, 1.0, 2) == "F"`} {
		if rec, _ := get(t, s.handleFilter, "/api/filter?view=fl&name=bad&expr="+url.QueryEscape(e)); rec.Code != http.StatusBadRequest {
			t.Errorf("filter %s: %d %s, want 400", e, rec.Code, rec.Body.String())
		}
	}
}

func TestSVGEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=4")
	req := httptest.NewRequest("GET", "/api/svg/histogram?view=fl&col=Distance", nil)
	rec := httptest.NewRecorder()
	s.handleHistogramSVG(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("svg: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Error("not SVG output")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
}

func TestHeatmapEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=10000,parts=2,seed=5")
	rec, body := get(t, s.handleHeatmap, "/api/heatmap?view=fl&x=DepDelay&y=ArrDelay")
	if rec.Code != http.StatusOK {
		t.Fatalf("heatmap: %d %s", rec.Code, rec.Body.String())
	}
	if body["counts"] == nil || body["rate"] == nil {
		t.Error("heatmap response incomplete")
	}
	rec, _ = get(t, s.handleHeatmap, "/api/heatmap?view=fl&x=NoCol&y=ArrDelay")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad column: %d", rec.Code)
	}
}

// TestStatusServeSection pins the JSON shape of the scheduler telemetry
// under "serve": the admission gauges and overload counters handlers
// and dashboards rely on.
func TestStatusServeSection(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	sv, ok := body["serve"].(map[string]any)
	if !ok {
		t.Fatalf("serve section missing: %v", body)
	}
	for _, key := range []string{
		"in_flight", "queued", "admitted", "shed", "queue_timeouts",
		"deadline_exceeded", "cancelled", "panics_recovered", "dedup_joins", "execs",
	} {
		if _, ok := sv[key]; !ok {
			t.Errorf("serve section missing %q: %v", key, sv)
		}
	}
	if sv["admitted"].(float64) == 0 {
		t.Errorf("no queries admitted: %v", sv)
	}
	views, ok := body["views"].(map[string]any)
	if !ok || views["loaded"].(float64) != 1 {
		t.Errorf("views section = %v", body["views"])
	}
}

// TestDerivedViewEviction pins the derived-view cap: past -max-views,
// the least-recently-used derived view is evicted, requests for it get
// a 404 naming the eviction, and loaded root views are never evicted.
func TestDerivedViewEviction(t *testing.T) {
	s := testServerViews(t, 2)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=6")
	for _, f := range []string{"a", "b"} {
		rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=`+f+`&expr=Carrier=="UA"`)
		if rec.Code != http.StatusOK {
			t.Fatalf("filter %s: %d %s", f, rec.Code, rec.Body.String())
		}
	}
	// Touch "a" so "b" is the LRU victim of the next derivation.
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=a"); rec.Code != http.StatusOK {
		t.Fatalf("meta a: %d", rec.Code)
	}
	if rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=c&expr=Carrier=="AA"`); rec.Code != http.StatusOK {
		t.Fatal("filter c failed")
	}
	rec, _ := get(t, s.handleMeta, "/api/meta?view=b")
	if rec.Code != http.StatusNotFound {
		t.Errorf("evicted view: %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "evicted") {
		t.Errorf("404 body does not name the eviction: %q", rec.Body.String())
	}
	for _, name := range []string{"fl", "a", "c"} {
		if rec, _ := get(t, s.handleMeta, "/api/meta?view="+name); rec.Code != http.StatusOK {
			t.Errorf("view %s: %d, want 200", name, rec.Code)
		}
	}
	// Unknown views stay 400 — eviction is the only 404.
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown view: %d, want 400", rec.Code)
	}
	// Re-deriving an evicted name resurrects it.
	if rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=b&expr=Carrier=="UA"`); rec.Code != http.StatusOK {
		t.Fatal("re-derive b failed")
	}
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=b"); rec.Code != http.StatusOK {
		t.Errorf("re-derived view b: %d", rec.Code)
	}
}

// TestEvictedViewsLeaveWorkers checks that a derived view the cap
// evicts is dropped on every worker holding it, not only in the root:
// across three caps' worth of filter-and-evict cycles on a 2-worker
// cluster, each worker holds at most the loaded view plus -max-views
// derived ones. An evicted view still answers through lineage replay,
// and re-deriving it by name, with the answers it gave before eviction.
func TestEvictedViewsLeaveWorkers(t *testing.T) {
	const maxViews = 3
	flights.Register()
	cfg := engine.Config{AggregationWindow: -1}
	var workers []*cluster.Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(storage.NewLoader(cfg, 0))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers, addrs = append(workers, w), append(addrs, addr)
	}
	clu, err := cluster.Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	root := engine.NewRoot(clu.Loader())
	s := newServer(root, serve.Config{Deadline: -1}, maxViews)
	s.attachEnv(nil, nil, clu)
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=4000,parts=4,seed=5"); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	loaded := make([]int, len(workers))
	for i, w := range workers {
		loaded[i] = w.NumDatasets()
	}

	filter := func(name, pred string) float64 {
		t.Helper()
		rec, body := get(t, s.handleFilter, "/api/filter?view=fl&name="+name+"&expr="+url.QueryEscape(pred))
		if rec.Code != http.StatusOK {
			t.Fatalf("filter %s: %d %s", name, rec.Code, rec.Body.String())
		}
		return body["rows"].(float64)
	}
	hist := &sketch.HistogramSketch{Col: "ArrDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 180, 12)}
	answer := func(id string) string {
		t.Helper()
		if _, err := root.Get(id); err != nil {
			t.Fatal(err)
		}
		res, err := root.RunSketch(context.Background(), id, hist, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res)
	}

	firstRows := filter("v0", "DepDelay > 5")
	first, err := s.views.get("v0")
	if err != nil {
		t.Fatal(err)
	}
	firstAnswer := answer(first.ID())
	for i := 1; i < 3*maxViews; i++ {
		filter(fmt.Sprintf("v%d", i), fmt.Sprintf("DepDelay > %d", 5+i))
		for j, w := range workers {
			if n := w.NumDatasets(); n > loaded[j]+maxViews {
				t.Fatalf("after %d filters worker %d holds %d datasets, want <= %d", i+1, j, n, loaded[j]+maxViews)
			}
		}
	}
	if _, err := s.views.get("v0"); err == nil {
		t.Fatal("v0 was not evicted")
	}
	if got := answer(first.ID()); got != firstAnswer {
		t.Errorf("replayed evicted view answers %s, want %s", got, firstAnswer)
	}
	if got := filter("v0", "DepDelay > 5"); got != firstRows {
		t.Errorf("re-derived v0 keeps %v rows, want %v", got, firstRows)
	}
	again, err := s.views.get("v0")
	if err != nil {
		t.Fatal(err)
	}
	if got := answer(again.ID()); got != firstAnswer {
		t.Errorf("re-derived view answers %s, want %s", got, firstAnswer)
	}
}

// TestHandlerPanicBecomes500 pins the render-path isolation: a panic in
// a handler becomes that request's 500 through the Recovered middleware
// and is counted in the scheduler stats.
func TestHandlerPanicBecomes500(t *testing.T) {
	s := testServer(t)
	h := s.sched.Recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("render bug")
	})
	req := httptest.NewRequest("GET", "/api/meta?view=x", nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if s.sched.Stats().PanicsRecovered != 1 {
		t.Error("panic not counted")
	}
}
