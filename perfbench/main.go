// Command perfbench is the repository's end-to-end benchmark. It runs
// the real cmd/hillview root and cmd/hillview-worker binaries on
// loopback, drives them over the HTTP API with a seeded request
// sequence, checks every answer, and prints the end-to-end metrics. With
// -trace 1 it also rebuilds the same stack in process from the layers'
// public constructors, replays the same requests through
// spreadsheet.View calls with spans at every layer seam, and prints the
// per-layer ledger. See README.md for the workloads and the metric map.
//
// Usage (from the repository root, after run.sh built the binaries):
//
//	perfbench -workload explore -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/flights"
	"repro/internal/storage"
)

// Scale sizes the data of every workload: "full" for measuring, "tiny"
// for the self-test.
type Scale struct {
	ShardRows   int // explore/spill: HVC2 rows per worker
	DashRows    int // dashboard: flights rows per worker
	BaseBatches int // grow: base batches sealed during set-up
	BaseRows    int // grow: rows per base batch
	AppendRows  int // grow: rows per timed append
	Variants    int // explore: variants per op in the pool
	SetupReps   int // set-ups per run; setup_s is their median
}

var scales = map[string]Scale{
	"full": {ShardRows: 250_000, DashRows: 10_000, BaseBatches: 20, BaseRows: 50_000, AppendRows: 5_000, Variants: 5, SetupReps: 3},
	"tiny": {ShardRows: 20_000, DashRows: 2_000, BaseBatches: 3, BaseRows: 2_000, AppendRows: 500, Variants: 1, SetupReps: 1},
}

// Grow's open-loop appender: batches per second, and a seal after
// every sealEvery appends.
const (
	appendsPerSecond = 10
	sealEvery        = 10
)

// Workload is one traffic mix over one deployment of the program.
type Workload struct {
	Name       string
	Workers    int    // worker processes (0: the root hosts the data)
	Source     string // load source of the root view
	Clients    int    // closed-loop query connections
	PoolBudget int64  // worker -pool-budget in bytes (0 = unlimited)
	Grow       bool   // ingest workload: base seals in set-up, appends while querying
	Rows       int64  // rows of the loaded view (grow: of the sealed base)
	Traffic    Traffic
	Scale      Scale
	Seed       int64
}

const viewName = "fl"

// newWorkload builds the named workload; its traffic is a pure function
// of seed, its data of the fixed generator seeds.
func newWorkload(name string, seed int64, sc Scale, dataDir string) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name, Scale: sc, Seed: seed}
	switch name {
	case "explore", "spill":
		dir, err := ensureShards(dataDir, 2, sc.ShardRows)
		if err != nil {
			return nil, err
		}
		w.Workers, w.Clients = 2, 1
		w.Source = "dir:" + filepath.Join(dir, "shard-{worker}")
		w.Rows = int64(2 * sc.ShardRows)
		pool := explorePool(rng, sc.Variants)
		w.Traffic = Traffic{Pool: pool, Clients: [][]Request{sequence(rng, pool, 20000, 0, 0)}}
		if name == "spill" {
			w.PoolBudget = touchedBytes(pool, sc.ShardRows) / 4
		}
	case "dashboard":
		w.Workers, w.Clients = 2, 2
		w.Source = fmt.Sprintf("flights:rows=%d,parts=4", sc.DashRows)
		w.Rows = int64(2 * sc.DashRows)
		pool := dashboardPool(rng, 96)
		w.Traffic = Traffic{Pool: pool}
		for c := 0; c < w.Clients; c++ {
			w.Traffic.Clients = append(w.Traffic.Clients, sequence(rng, pool, 50000, 0.25, 8))
		}
	case "grow":
		w.Grow, w.Clients = true, 1
		w.Rows = int64(sc.BaseBatches * sc.BaseRows)
		pool := growPool(rng)
		w.Traffic = Traffic{Pool: pool, Clients: [][]Request{sequence(rng, pool, 20000, 0, 0)}}
	default:
		return nil, fmt.Errorf("unknown workload %q (want explore, spill, dashboard or grow)", name)
	}
	return w, nil
}

// touchedBytes estimates the column bytes one worker's shard holds for
// the columns pool touches: 8 bytes per numeric cell, 4 per string code.
func touchedBytes(pool []Request, rows int) int64 {
	cols := map[string]bool{"DepDelay": true} // filterhist predicate
	for _, r := range pool {
		for _, c := range append(append([]string{r.Col, r.Col2}, splitExtra(r.Extra)...), orderCols(r.Order)...) {
			if c != "" {
				cols[c] = true
			}
		}
	}
	var b int64
	for c := range cols {
		if isString(c) {
			b += 4 * int64(rows)
		} else {
			b += 8 * int64(rows)
		}
	}
	return b
}

func orderCols(spec string) []string {
	if spec == "" {
		return nil
	}
	var out []string
	for _, o := range parseOrder(spec) {
		out = append(out, o.Column)
	}
	return out
}

// ensureShards writes the explore/spill data once per checkout: one
// directory of HVC2 files per worker, from fixed generator seeds.
func ensureShards(dataDir string, workers, rows int) (string, error) {
	dir := filepath.Join(dataDir, fmt.Sprintf("flights-%dx%d", workers, rows))
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	for g := 0; g < workers; g++ {
		sub := filepath.Join(tmp, fmt.Sprintf("shard-%d", g))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return "", err
		}
		parts := (rows + storage.DefaultMicroRows - 1) / storage.DefaultMicroRows
		for i, t := range flights.GenPartitions(fmt.Sprintf("flights-%d", g), rows, parts, uint64(g+1), flights.CoreColumns) {
			if err := storage.WriteHVC2(filepath.Join(sub, fmt.Sprintf("flights-%d-%03d.hvc", g, i)), t); err != nil {
				return "", err
			}
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func hostFacts() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
}

// Options are the run's flags.
type Options struct {
	BinDir  string
	WorkDir string
	Seconds float64
	Trace   bool // report the per-layer ledger instead of the end-to-end metrics
	// Self-test settings: send exactly Requests timed requests per
	// client instead of timing, and corrupt one expected answer.
	Requests int
	Corrupt  bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", "workload: explore, spill, dashboard or grow")
	seed := flag.Int64("seed", 1, "workload seed (the request sequence is a pure function of it)")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = print the per-layer ledger of a traced in-process replay")
	var o Options
	flag.StringVar(&o.BinDir, "bin", ".bench_build/bin", "directory holding the hillview and hillview-worker binaries")
	flag.StringVar(&o.WorkDir, "work", ".bench_build", "directory for generated data and per-run temp dirs")
	flag.Parse()
	o.Seconds, o.Trace = *seconds, *trace == 1

	fmt.Println(hostFacts())
	flights.Register()
	w, err := newWorkload(*name, *seed, scales["full"], filepath.Join(o.WorkDir, "data"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s seed=%d traffic=%s pool=%d clients=%d\n", w.Name, w.Seed, w.Traffic.Digest(), len(w.Traffic.Pool), w.Clients)
	res, err := run(context.Background(), w, o)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
