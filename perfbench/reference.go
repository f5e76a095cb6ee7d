package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/table"
)

// foldRunner is the reference executor: every sketch runs as the
// sketch package's reference fold (Summarize per partition, then a
// sequential Merge) over the dataset's partitions — no leaf thread
// pool, chunking, wire, cache or scheduler.
type foldRunner struct{ root *engine.Root }

func (f foldRunner) parts(id string) ([]*table.Table, error) {
	ds, err := f.root.Get(id)
	if err != nil {
		return nil, err
	}
	local, ok := ds.(*engine.LocalDataSet)
	if !ok {
		return nil, fmt.Errorf("reference dataset %q is a %T, want an eager local dataset", id, ds)
	}
	return local.Partitions(), nil
}

func (f foldRunner) RunSketch(_ context.Context, id string, sk sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
	parts, err := f.parts(id)
	if err != nil {
		return nil, err
	}
	acc := sk.Zero()
	for _, t := range parts {
		r, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		if acc, err = sk.Merge(acc, r); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// reference answers request shapes over the same rows the program
// serves, loaded eagerly by load.
type reference struct {
	fold foldRunner
	view *spreadsheet.View
}

func newReference(ctx context.Context, load engine.Loader, source string) (*reference, error) {
	root := engine.NewRoot(load)
	fold := foldRunner{root}
	v, err := spreadsheet.NewWithRunner(root, fold).Load(ctx, "ref", source)
	if err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	return &reference{fold: fold, view: v}, nil
}

// parseOrder parses "+A,-B" sort specs the way cmd/hillview does.
func parseOrder(spec string) table.RecordOrder {
	var out table.RecordOrder
	for _, part := range strings.Split(spec, ",") {
		asc := part[0] == '+'
		out = append(out, table.ColumnSortOrder{Column: part[1:], Ascending: asc})
	}
	return out
}

func splitExtra(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// expect computes the ground truth for one request shape.
func (ref *reference) expect(ctx context.Context, r Request) (Expected, error) {
	v := ref.view
	switch r.Kind {
	case "meta":
		return Expected{Answer: Answer{Rows: v.NumRows(), Columns: v.Schema().NumColumns()}}, nil
	case "table":
		l, err := v.TableView(ctx, parseOrder(r.Order), splitExtra(r.Extra), r.K, nil, nil)
		if err != nil {
			return Expected{}, err
		}
		return Expected{Answer: tableAnswer(l)}, nil
	case "histogram", "filterhist":
		var e Expected
		if r.Kind == "filterhist" {
			fv, err := v.FilterExpr(ctx, r.Expr)
			if err != nil {
				return Expected{}, err
			}
			v, e.FilterRows = fv, fv.NumRows()
		}
		hv, err := v.Histogram(ctx, r.Col, spreadsheet.ChartOptions{Bars: r.Bars, WithCDF: r.CDF, Exact: true})
		if err != nil {
			return Expected{}, err
		}
		n := int(v.NumRows())
		e.Answer, e.Present = histAnswer(hv), hv.Range.Present
		if !r.Exact {
			e.Rate = sketch.Rate(sketch.HistogramSampleSize(hv.Buckets.Count, spreadsheet.DefaultHeight, spreadsheet.DefaultDelta), n)
		}
		if r.CDF {
			e.CDFRate = sketch.Rate(sketch.CDFSampleSize(spreadsheet.DefaultHeight, spreadsheet.DefaultDelta), n)
		}
		return e, nil
	case "heatmap":
		hm, err := v.Heatmap(ctx, r.Col, r.Col2, spreadsheet.ChartOptions{})
		if err != nil {
			return Expected{}, err
		}
		exact, err := ref.fold.RunSketch(ctx, v.ID(), sketch.NewHeatmapSketch(r.Col, r.Col2, hm.Result.X, hm.Result.Y, 1, 0), nil)
		if err != nil {
			return Expected{}, err
		}
		a := heatAnswer(hm)
		a.Counts = exact.(*sketch.Histogram2D).Counts
		return Expected{Answer: a, Rate: hm.Result.SampleRate}, nil
	case "heavyhitters":
		parts, err := ref.fold.parts(v.ID())
		if err != nil {
			return Expected{}, err
		}
		vals, n, err := valueCounts(parts, r.Col)
		if err != nil {
			return Expected{}, err
		}
		rate := sketch.Rate(sketch.HeavyHittersSampleSize(r.K, spreadsheet.DefaultDelta), int(n))
		return Expected{Values: vals, ScanRows: n, Rate: rate}, nil
	}
	return Expected{}, fmt.Errorf("unknown request kind %q", r.Kind)
}

// expectAll computes the truth for every distinct shape of pool.
func (ref *reference) expectAll(ctx context.Context, pool []Request) (map[string]Expected, error) {
	out := map[string]Expected{}
	for _, r := range pool {
		if _, ok := out[r.Shape()]; ok {
			continue
		}
		e, err := ref.expect(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.Class, err)
		}
		out[r.Shape()] = e
	}
	return out, nil
}
