package engine

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
)

// chunkSampleEvery is the scan.chunk span sampling rate: one chunk in
// this many gets a span on a traced query, enough to show per-chunk
// cost without letting a million-chunk scan flood the span budget.
const chunkSampleEvery = 16

// partialsEmitted counts partial-result deliveries engine-wide (solo
// and pooled paths alike); the hillview binary registers it with the
// obs registry.
var partialsEmitted obs.Counter

// PartialsCounter exposes the engine-wide partial-emission counter for
// obs registration.
func PartialsCounter() *obs.Counter { return &partialsEmitted }

// LocalDataSet holds a dataset's micropartitions on this machine and
// summarizes them with a bounded thread pool (paper §5.3: "to
// parallelize execution within a server, each server runs multiple leaf
// nodes: there is a thread pool that serves leafs with work to do").
//
// Partitions are held one of two ways: eagerly, as in-memory tables
// (NewLocal), or lazily, behind a LeafSource (NewLocalSource) that
// materializes a partition's columns only while a scan task reads them
// — the column store's budgeted buffer pool plugs in there. Both forms
// produce identical scan geometry and bit-identical results.
type LocalDataSet struct {
	id     string
	parts  []*table.Table // eager partitions; nil when src is set
	src    LeafSource     // lazy partition supplier; nil when eager
	leaves []LeafMeta     // cached src.Leaves()
	cfg    Config
}

// NewLocal wraps partitions as a local dataset.
func NewLocal(id string, parts []*table.Table, cfg Config) *LocalDataSet {
	return &LocalDataSet{id: id, parts: parts, cfg: cfg}
}

// ID implements IDataSet.
func (d *LocalDataSet) ID() string { return d.id }

// numParts returns the partition count for either form.
func (d *LocalDataSet) numParts() int {
	if d.src != nil {
		return len(d.leaves)
	}
	return len(d.parts)
}

// NumLeaves implements IDataSet.
func (d *LocalDataSet) NumLeaves() int { return d.numParts() }

// Partitions returns the underlying partition tables of an eager
// dataset; a lazy dataset returns nil (its partitions materialize per
// scan task).
func (d *LocalDataSet) Partitions() []*table.Table { return d.parts }

// TotalRows returns the number of member rows across partitions. For a
// lazy dataset this reads metadata only.
func (d *LocalDataSet) TotalRows() int64 {
	var n int64
	if d.src != nil {
		for _, m := range d.leaves {
			n += int64(m.Hi - m.Lo)
		}
		return n
	}
	for _, p := range d.parts {
		n += int64(p.NumRows())
	}
	return n
}

func (d *LocalDataSet) parallelism() int {
	p := d.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// leafTask is one unit of leaf-scan work: a whole partition, or one
// fixed physical-row-range chunk of a partition when the partition
// exceeds Config.ChunkRows. Eager tasks carry the prepared table; lazy
// tasks carry only the chunk geometry and resolve the table through
// the LeafSource when a worker picks them up.
type leafTask struct {
	part int          // partition index, for per-partition progress accounting
	t    *table.Table // eager: ready to scan; lazy: nil
	lo   int          // lazy chunk start; -1 = whole partition
	hi   int          // lazy chunk end (exclusive)
}

// leafTasks shards the partitions into scan tasks for sk. Chunk tables
// get the stable ID "<partition>#<start row>", so per-chunk sampling
// seeds derive from (seed, chunk start) via sketch.PartitionSeed and
// replaying the same configuration reproduces identical samples (paper
// §5.8). Sketches that implement sketch.WholePartition are never
// chunked, and neither are partitions whose member count (not just
// physical bound) fits one chunk — a heavily filtered partition over a
// large physical space is one cheap scan, not many empty ones. Chunks
// whose row range holds no members at all (a popcount over the
// membership bitset range, via Restrict) are dropped before dispatch,
// so a clustered filter over a large physical space does not enqueue
// no-op tasks; chunk IDs still derive from the physical start row, so
// skipping never shifts another chunk's sampling seed.
func (d *LocalDataSet) leafTasks(sk sketch.Sketch) []leafTask {
	if d.src != nil {
		return d.lazyLeafTasks(sk)
	}
	chunk := d.cfg.chunkRows()
	_, whole := sk.(sketch.WholePartition)
	tasks := make([]leafTask, 0, len(d.parts))
	for pi, p := range d.parts {
		max := p.Members().Max()
		if whole || max <= chunk || p.NumRows() <= chunk {
			tasks = append(tasks, leafTask{part: pi, t: p, lo: -1})
			continue
		}
		for lo := 0; lo < max; lo += chunk {
			hi := lo + chunk
			if hi > max {
				hi = max
			}
			m := table.Restrict(p.Members(), lo, hi)
			if m.Size() == 0 {
				continue
			}
			id := p.ID() + "#" + strconv.Itoa(lo)
			tasks = append(tasks, leafTask{part: pi, t: p.WithMembership(id, m), lo: lo, hi: hi})
		}
	}
	return tasks
}

// lazyLeafTasks plans scan tasks from partition metadata alone,
// mirroring the eager plan exactly: same chunk boundaries, same
// memberless-chunk skipping (a leaf's members are the contiguous range
// [Lo, Hi), so the popcount is interval arithmetic), and the same
// chunk IDs — geometry is a pure function of the configuration, never
// of what happens to be resident.
func (d *LocalDataSet) lazyLeafTasks(sk sketch.Sketch) []leafTask {
	chunk := d.cfg.chunkRows()
	_, whole := sk.(sketch.WholePartition)
	tasks := make([]leafTask, 0, len(d.leaves))
	for pi, m := range d.leaves {
		// An empty partition still gets its whole-partition task (via
		// Hi-Lo <= chunk), exactly like the eager planner: identical
		// task lists keep the stripe merge shape — and with it
		// merge-order-sensitive results — bit-identical across the
		// eager and lazy forms.
		if whole || m.Bound <= chunk || m.Hi-m.Lo <= chunk {
			tasks = append(tasks, leafTask{part: pi, lo: -1})
			continue
		}
		for lo := 0; lo < m.Bound; lo += chunk {
			hi := lo + chunk
			if hi > m.Bound {
				hi = m.Bound
			}
			if hi <= m.Lo || lo >= m.Hi {
				continue // chunk holds no member rows
			}
			tasks = append(tasks, leafTask{part: pi, lo: lo, hi: hi})
		}
	}
	return tasks
}

// taskTable resolves a task to its scan table. Eager tasks are ready;
// lazy tasks acquire the partition (pinning its columns) and restrict
// it to the task's chunk with the same derived ID the eager path uses.
// release is non-nil only for lazy tasks and must be called once the
// fold is done.
func (d *LocalDataSet) taskTable(tk leafTask, cols []string) (*table.Table, func(), error) {
	if tk.t != nil {
		return tk.t, nil, nil
	}
	t, release, err := d.src.Acquire(tk.part, cols)
	if err != nil {
		return nil, nil, err
	}
	if tk.lo >= 0 {
		id := t.ID() + "#" + strconv.Itoa(tk.lo)
		t = t.WithMembership(id, table.Restrict(t.Members(), tk.lo, tk.hi))
	}
	return t, release, nil
}

// maxLeafStripes bounds the number of stripes, and so of accumulators,
// one leaf scan folds into. It caps the scan's useful parallelism; past
// it, more stripes would only cost accumulator allocation and merges.
const maxLeafStripes = 64

// leafStripes splits n scan tasks into runs of consecutive tasks and
// returns the run boundaries: stripe s covers tasks [b[s], b[s+1]).
// The split is a pure function of n — never of the thread count or of
// scheduling — so the merge shape of a scan is too. Stripes differ in
// length by at most one task, and the longer ones come first, so the
// last stripes claimed are the short ones.
func leafStripes(n int) []int {
	s := min(n, maxLeafStripes)
	b := make([]int, s+1)
	if s == 0 {
		return b
	}
	q, r := n/s, n%s
	for i := 1; i <= s; i++ {
		b[i] = b[i-1] + q
		if i <= r {
			b[i]++
		}
	}
	return b
}

// leafWorker holds one stripe's fold: the stripe's tasks go, in task
// order, into its own accumulator (or, for sketches without one, a
// private Merge fold), so pool threads never contend on a shared
// summary. mu serializes the folding with snapshots taken by the
// partial emitter.
type leafWorker struct {
	mu   sync.Mutex
	acc  sketch.Accumulator // non-nil when the sketch provides one
	fold sketch.Result      // Merge-fold state otherwise
}

func newLeafWorker(sk sketch.Sketch) *leafWorker {
	if as, ok := sk.(sketch.AccumulatorSketch); ok {
		return &leafWorker{acc: as.NewAccumulator()}
	}
	return &leafWorker{fold: sk.Zero()}
}

// add folds one task's table into the worker's state.
func (w *leafWorker) add(sk sketch.Sketch, t *table.Table) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.acc != nil {
		return w.acc.Add(t)
	}
	r, err := sk.Summarize(t)
	if err != nil {
		return err
	}
	merged, err := sk.Merge(w.fold, r)
	if err != nil {
		return err
	}
	w.fold = merged
	return nil
}

// snapshot returns an immutable view of everything folded so far.
func (w *leafWorker) snapshot() sketch.Result {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.acc != nil {
		return w.acc.Snapshot()
	}
	return w.fold
}

// result returns the stripe's final summary; no thread may still fold
// into it.
func (w *leafWorker) result() sketch.Result {
	if w.acc != nil {
		return w.acc.Result()
	}
	return w.fold
}

// mergeSnapshots combines every stripe's current snapshot into one
// summary with a pairwise merge tree.
func mergeSnapshots(sk sketch.Sketch, stripes []*leafWorker) (sketch.Result, error) {
	snaps := make([]sketch.Result, len(stripes))
	for i, w := range stripes {
		snaps[i] = w.snapshot()
	}
	return sketch.MergeTree(sk, snaps...)
}

// Sketch implements IDataSet. Each partition is scanned as one or more
// fixed-range chunk tasks (see leafTasks), grouped into stripes of
// consecutive tasks (see leafStripes). A pool of workers claims whole
// stripes from a shared cursor and folds each stripe's tasks, in order,
// into the stripe's own accumulator (sketch.AccumulatorSketch) or
// private Merge fold, so no chunk result ever crosses a shared lock;
// once every stripe is folded, the stripe states combine in a pairwise
// merge tree in stripe order. Which thread folds a stripe does not
// matter, so the result — merge-order-sensitive sketches such as
// Misra–Gries included — is the same on every run, thread count and
// replica. Partial results are emitted at most once per aggregation
// window: the emitting worker merges a snapshot of every stripe and invokes
// onPartial holding only the emission lock, never a fold or progress
// lock — a slow partial consumer costs dropped partials, never a
// stalled scan. Done counts fully folded partitions. Cancellation stops
// workers from pulling not-yet-started tasks, and a probe threaded into
// each task's table (WithCancel) stops the running chunk scan itself
// within ~64Ki rows; a panic in sketch code is recovered into the
// query's error instead of crashing the pool's process.
func (d *LocalDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	total := d.numParts()
	cols := sketch.SketchColumns(sk)
	if total == 0 {
		z := sk.Zero()
		emit(onPartial, Partial{Result: z, Done: 0, Total: 0})
		return z, nil
	}
	tasks := d.leafTasks(sk)
	pending := make([]int, total) // unfolded tasks per partition
	for _, tk := range tasks {
		pending[tk.part]++
	}
	var (
		progMu   sync.Mutex
		done     int // fully folded partitions
		firstErr error
	)
	for _, n := range pending {
		if n == 0 { // partition with no member rows in any chunk
			done++
		}
	}

	bounds := leafStripes(len(tasks))
	stripes := make([]*leafWorker, len(bounds)-1)
	for i := range stripes {
		stripes[i] = newLeafWorker(sk)
	}
	nw := d.parallelism()
	if nw > len(stripes) {
		nw = len(stripes)
	}
	if nw < 1 {
		nw = 1
	}
	th := newThrottle(d.cfg.window())

	// Partial emission: the worker that wins the throttle reads the
	// progress counter, snapshots every stripe, and invokes onPartial
	// holding only emitMu — never a stripe's fold lock or the progress
	// lock. emitMu serializes emissions so Done stays monotone; window
	// emissions take it with TryLock, so while a slow consumer is still
	// inside onPartial later emissions are dropped (the next window
	// re-emits a fresher snapshot) instead of queueing workers behind the
	// callback. Only the completion emit after wg.Wait takes it blocking:
	// dropped windows are superseded by the final Done==Total partial,
	// never by silence. Progress is read after winning emitMu and workers fold
	// before they update progress, so each emitted summary covers at
	// least the chunks its Done count claims. Only stripes claimed by
	// then are snapshotted: the rest hold nothing, and waiting on a
	// stripe a worker claims after the read would let the emitter trail
	// that worker stripe by stripe to the end of the scan.
	var (
		emitMu sync.Mutex
		cursor atomic.Int64 // next stripe to claim
	)
	emitPartial := func() {
		if !emitMu.TryLock() {
			return
		}
		defer emitMu.Unlock()
		progMu.Lock()
		dn, bad := done, firstErr != nil
		progMu.Unlock()
		// Once every partition has folded, the unconditional final emit
		// below delivers the one Done==Total partial (built from the
		// returned result, not a snapshot); suppressing it here keeps
		// the old contract of exactly one completion partial.
		if bad || dn == total {
			return
		}
		claimed := min(int(cursor.Load()), len(stripes))
		snap, err := mergeSnapshots(sk, stripes[:claimed])
		if err != nil {
			return // partial emission is best-effort
		}
		partialsEmitted.Inc()
		onPartial(Partial{Result: snap, Done: dn, Total: total})
	}

	// cancelProbe is threaded into every task table (table.WithCancel) so
	// kernels stop mid-chunk, not just between chunks — whole-partition
	// sketches and unchunked configurations would otherwise keep burning
	// cores long after the query was abandoned. A probed scan may
	// truncate silently; that is safe because a fired probe implies
	// ctx.Err() != nil, and the fold below is discarded whenever the
	// context is cancelled.
	cancelProbe := func() bool { return ctx.Err() != nil }

	tr := obs.TraceFrom(ctx)
	leafSp := tr.StartSpan("scan.leaf")
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panicking sketch fails this query only: the recovered
			// panic becomes the scan's first error, the other workers
			// drain out via the firstErr check, and the pool's caller —
			// possibly a long-lived server — keeps running.
			defer func() {
				if pe := CapturePanic(recover()); pe != nil {
					progMu.Lock()
					if firstErr == nil {
						firstErr = pe
					}
					progMu.Unlock()
				}
			}()
			// Claimed stripe and the next task in it; a stripe is
			// claimed whole, so its tasks fold in order into its own
			// state.
			var w *leafWorker
			i, end := 0, 0
			for {
				// Cancellation removes enqueued work (paper §5.3);
				// running chunks finish. The context is checked before
				// every task so a cancelled query never starts new work.
				if ctx.Err() != nil {
					return
				}
				progMu.Lock()
				stop := firstErr != nil
				progMu.Unlock()
				if stop {
					return
				}
				if i == end {
					si := int(cursor.Add(1)) - 1
					if si >= len(stripes) {
						return
					}
					w, i, end = stripes[si], bounds[si], bounds[si+1]
				}
				tk := tasks[i]
				// Sampled chunk spans: on a traced query, one chunk in
				// chunkSampleEvery records its fold so the trace shows
				// per-chunk cost without span-budget blowup. tr is nil on
				// untraced queries, so this is one modulo on the hot path.
				traceChunk := tr != nil && i%chunkSampleEvery == 0
				var chunkSp obs.SpanHandle
				if traceChunk {
					chunkSp = tr.StartSpan("scan.chunk")
				}
				t, release, err := d.taskTable(tk, cols)
				if err == nil {
					err = w.add(sk, t.WithCancel(cancelProbe))
					// Unpin as soon as the fold lands: the resident
					// working set is bounded by the worker pool, not the
					// dataset.
					if release != nil {
						release()
					}
				}
				if traceChunk {
					chunkSp.EndNote("chunk=" + strconv.Itoa(i))
				}
				if err == nil && ctx.Err() != nil {
					// The probe may have truncated this chunk's scan
					// mid-stream; never mark it done or emit from it —
					// the cancelled query's fold is discarded wholesale.
					return
				}
				if err != nil {
					progMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					progMu.Unlock()
					return
				}
				i++
				progMu.Lock()
				pending[tk.part]--
				if pending[tk.part] == 0 {
					done++
				}
				progMu.Unlock()
				if onPartial != nil && th.allow(false) {
					emitPartial()
				}
			}
		}()
	}
	wg.Wait()
	leafSp.EndNote("chunks=" + strconv.Itoa(len(tasks)) + " stripes=" + strconv.Itoa(len(stripes)) + " workers=" + strconv.Itoa(nw))
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]sketch.Result, len(stripes))
	for i, w := range stripes {
		results[i] = w.result()
	}
	mergeSp := tr.StartSpan("merge.tree")
	final, err := sketch.MergeTree(sk, results...)
	mergeSp.End()
	if err != nil {
		return nil, err
	}
	// The completion partial blocks on emitMu rather than TryLock: if a
	// worker's trailing window emission is still inside a slow consumer's
	// onPartial, the final Done==Total delivery waits for it instead of
	// racing it, so the last thing every subscriber sees is the complete
	// result. (Workers emit synchronously before wg.Wait returns, so this
	// lock is uncontended today; it pins the ordering against future
	// asynchronous emitters.)
	if onPartial != nil {
		emitMu.Lock()
		partialsEmitted.Inc()
		onPartial(Partial{Result: final, Done: total, Total: total})
		emitMu.Unlock()
	}
	return final, nil
}

// Map implements IDataSet: partitions transform independently and in
// parallel, with stable derived partition IDs so that replay rebuilds
// identical state. A lazy dataset acquires each partition for the
// duration of its transform; the derived dataset is eager (its tables
// are fresh soft state sharing the source's column storage, which the
// column store keeps readable even after eviction).
func (d *LocalDataSet) Map(op MapOp, newID string) (IDataSet, error) {
	out := make([]*table.Table, d.numParts())
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, d.parallelism())
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			src := d.parts
			var (
				p       *table.Table
				release func()
				err     error
			)
			if d.src != nil {
				p, release, err = d.src.Acquire(i, nil)
			} else {
				p = src[i]
			}
			var t *table.Table
			if err == nil {
				t, err = op.Apply(p, DerivePartID(newID, i))
				if release != nil {
					release()
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			out[i] = t
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &LocalDataSet{id: newID, parts: out, cfg: d.cfg}, nil
}

func emit(f PartialFunc, p Partial) {
	if f != nil {
		partialsEmitted.Inc()
		f(p)
	}
}

// throttle rate-limits partial emission to one per window; the final
// update always passes (paper §5.3's 0.1 s batching).
type throttle struct {
	mu       sync.Mutex
	last     time.Time
	window   time.Duration
	disabled bool
}

func newThrottle(window time.Duration) *throttle {
	return &throttle{window: window, disabled: window < 0}
}

func (t *throttle) allow(final bool) bool {
	if final {
		return true
	}
	if t.disabled {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if now.Sub(t.last) >= t.window {
		t.last = now
		return true
	}
	return false
}
