// Package engine implements Hillview's distributed execution engine
// (paper §5): datasets partitioned into micropartitions, execution trees
// that run vizketch summarize functions on leaves and fold results with
// merge toward the root, progressive partial results with a bounded
// aggregation window, cancellation, a computation cache, and soft-state
// memory management with redo-log replay for fault tolerance.
//
// The three dataset node types mirror Figure 1 of the paper:
//
//   - LocalDataSet — a leaf group: micropartitions on this machine,
//     summarized in parallel by a thread pool.
//   - ParallelDataSet — an aggregation node over child datasets
//     (local or remote), merging their streams of partial results.
//   - RemoteDataSet (package cluster) — a stub for a dataset living on
//     a worker process, reached over the wire.
//
// All three implement IDataSet, so trees compose to any shape.
package engine

import (
	"context"
	"time"

	"repro/internal/sketch"
)

// Partial is one progressive update: the best merged summary so far and
// how many leaves contributed to it (paper §5.3: "the root receives
// partial results and sends them to the client UI, before it gets the
// final results"; the Done/Total ratio drives the progress bar).
type Partial struct {
	Result sketch.Result
	Done   int
	Total  int
}

// PartialFunc receives progressive updates. Implementations must be
// fast; the engine calls them inline on the aggregation path.
type PartialFunc func(Partial)

// IDataSet is a node of the execution tree: a (possibly distributed)
// immutable dataset that can run sketches and derive new datasets.
// It corresponds to the Partitioned Data Set of the paper (§5.7), with
// all references soft: a dataset may vanish at any time, in which case
// operations return ErrMissingDataset and the root replays the redo log.
type IDataSet interface {
	// ID returns the dataset's stable identifier.
	ID() string
	// NumLeaves returns the number of leaf partitions under this node.
	NumLeaves() int
	// Sketch runs sk over every partition, streaming monotone partial
	// results to onPartial (which may be nil) and returning the final
	// merged summary. It honors ctx cancellation between micropartitions
	// (paper §5.3: enqueued work is dropped; work on a started
	// micropartition is not interrupted).
	Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error)
	// Map derives a new dataset by applying op to every partition.
	Map(op MapOp, newID string) (IDataSet, error)
}

// DefaultAggregationWindow is the partial-result batching interval
// (paper §5.3: "aggregation nodes wait for 0.1 seconds and aggregate all
// results that arrive within this interval").
const DefaultAggregationWindow = 100 * time.Millisecond

// Config tunes the engine. The zero value means: parallelism =
// GOMAXPROCS, aggregation window = DefaultAggregationWindow.
type Config struct {
	// Parallelism bounds the leaf thread pool per LocalDataSet
	// (0 = GOMAXPROCS).
	Parallelism int
	// AggregationWindow throttles partial emission; negative disables
	// partials entirely, 0 means the default.
	AggregationWindow time.Duration
	// ChunkRows bounds the physical row range summarized by one leaf
	// scan task: partitions larger than this are sharded into
	// fixed-range chunks scanned concurrently and folded with the
	// sketch's own Merge (0 = DefaultChunkRows, negative disables
	// sharding). Chunk boundaries and per-chunk sampling seeds depend
	// only on this value, so results are replay-deterministic.
	ChunkRows int
}

// DefaultChunkRows is the default leaf-scan chunk size: large enough
// that per-chunk setup is noise, small enough that one oversized
// partition still spreads across the thread pool.
const DefaultChunkRows = 1 << 18

func (c Config) window() time.Duration {
	if c.AggregationWindow == 0 {
		return DefaultAggregationWindow
	}
	return c.AggregationWindow
}

func (c Config) chunkRows() int {
	switch {
	case c.ChunkRows < 0:
		return int(^uint(0) >> 1) // sharding disabled
	case c.ChunkRows == 0:
		return DefaultChunkRows
	default:
		return c.ChunkRows
	}
}
