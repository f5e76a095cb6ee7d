package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/flights"
	"repro/internal/table"
)

// The grow dataset's narrow flights schema.
var (
	growNumeric = []string{"DepDelay", "ArrDelay", "Distance"}
	growCols    = []string{"DepDelay", "ArrDelay", "Distance", "Carrier", "Origin"}
)

const (
	growName   = viewName
	growSchema = "DepDelay:double,ArrDelay:double,Distance:double,Carrier:string,Origin:string"
)

// growBatch is one appended batch: generated flights rows, projected to
// the narrow schema.
type growBatch struct {
	id   string
	n    int
	seed uint64
	body []byte // JSON append body, rendered by render
}

func (b *growBatch) table() (*table.Table, error) {
	return flights.Gen(b.id, b.n, b.seed, flights.CoreColumns).Project(b.id, growCols)
}

// render builds the HTTP append body: {"rows": [[...], ...]}, missing
// cells as null.
func (b *growBatch) render() error {
	t, err := b.table()
	if err != nil {
		return err
	}
	rows := make([][]any, 0, t.NumRows())
	for _, row := range t.Rows() {
		out := make([]any, len(row))
		for i, v := range row {
			switch {
			case v.Missing:
				out[i] = nil
			case v.Kind == table.KindString:
				out[i] = v.S
			default:
				out[i] = v.D
			}
		}
		rows = append(rows, out)
	}
	b.body, err = json.Marshal(map[string]any{"rows": rows})
	return err
}

// growData is grow's write traffic: the base sealed during set-up and
// the timed appends, both from fixed generator seeds (the workload seed
// picks only the queries).
type growData struct {
	base    []*growBatch
	appends []*growBatch
}

func newGrowData(w *Workload, appends int, render bool) (*growData, error) {
	g := &growData{}
	for i := 0; i < w.Scale.BaseBatches; i++ {
		g.base = append(g.base, &growBatch{id: fmt.Sprintf("base-%d", i), n: w.Scale.BaseRows, seed: uint64(1000 + i)})
	}
	for i := 0; i < appends; i++ {
		g.appends = append(g.appends, &growBatch{id: fmt.Sprintf("app-%d", i), n: w.Scale.AppendRows, seed: uint64(1_000_000 + i)})
	}
	if render {
		for _, b := range append(append([]*growBatch(nil), g.base...), g.appends...) {
			if err := b.render(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// baseTables are the sealed base as the reference loads it.
func (g *growData) baseTables() ([]*table.Table, error) {
	var out []*table.Table
	for _, b := range g.base {
		t, err := b.table()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// growState tracks what the appender has made durable, so a query's
// row count can be checked against the seals acknowledged around it.
type growState struct {
	mu        sync.Mutex
	base      int64
	step      int64 // rows per seal
	sealed    int64 // acknowledged sealed rows
	inFlight  bool
	freshNext bool // the next query to start is the first after a seal ack
}

func (g *growState) start() (sealed int64, fresh bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh, g.freshNext = g.freshNext, false
	return g.sealed, fresh
}

// rows is what a query started at sealed0 may see: any sealed prefix
// acknowledged by its end, or one seal still in flight.
func (g *growState) rows(sealed0 int64) rowCheck {
	g.mu.Lock()
	defer g.mu.Unlock()
	hi := g.sealed
	if g.inFlight {
		hi += g.step
	}
	return rowCheck{lo: sealed0, hi: hi, base: g.base, step: g.step}
}

func (g *growState) sealing(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight = on
	if !on {
		g.sealed += g.step
		g.freshNext = true
	}
}

// appendLoop is grow's connection A: an open loop that sends batch i
// when it is due (start + i/appendsPerSecond), seals after every
// sealEvery batches, and stops at the deadline or after the batches run
// out. Appends are timed from when they were due; lateness is how far
// behind schedule each send went out.
func appendLoop(ctx context.Context, t target, g *growData, st *growState, deadline time.Time, tl *tally) {
	start := time.Now()
	for i, b := range g.appends {
		due := start.Add(time.Duration(i) * time.Second / appendsPerSecond)
		if due.After(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		tl.record(func(tl *tally) { tl.lateness = append(tl.lateness, time.Since(due)) })
		err := t.appendBatch(ctx, b)
		d := time.Since(due)
		tl.record(func(tl *tally) {
			tl.attempted++
			if err != nil {
				tl.fail(err)
				return
			}
			tl.appends = append(tl.appends, d)
		})
		if (i+1)%sealEvery != 0 {
			continue
		}
		st.sealing(true)
		s := time.Now()
		err = t.seal(ctx)
		d = time.Since(s)
		st.sealing(false)
		tl.record(func(tl *tally) {
			tl.attempted++
			if err != nil {
				tl.fail(err)
				return
			}
			tl.seals = append(tl.seals, d)
		})
	}
}
