package bitonic

import (
	"runtime"
	"sync"

	"oblivjoin/internal/trace"
)

// RangeArray is an optional Array extension: batched contiguous reads
// and writes. Implementations must emit exactly the per-element events
// of the equivalent Get/Set loop, in ascending index order, with the
// whole range handled in one dynamic dispatch. *memory.Array[T],
// *table.BlockEncrypted and the windowed views of internal/core
// implement it.
type RangeArray[T any] interface {
	Array[T]
	GetRange(lo int, dst []T)
	SetRange(lo int, src []T)
}

// InPlaceArray is an optional RangeArray extension for stores whose
// elements live in plain memory. ReadInPlace emits exactly the read
// events of GetRange over [lo, lo+n) and returns the backing elements
// themselves; WriteInPlace emits exactly the write events of SetRange
// over the same range. Between the two calls the executor mutates the
// returned elements directly, so a batched chunk costs no copy out and
// no copy back, while the recorded trace (and any cost model charged
// per element) is the one the buffered path produces. *memory.Array[T],
// its shards and the windowed views of internal/core over such arrays
// implement it; sealed and spilled stores do not, and keep the
// buffered path.
type InPlaceArray[T any] interface {
	RangeArray[T]
	ReadInPlace(lo, n int) []T
	WriteInPlace(lo, n int)
}

// Sharder is an optional Array extension that makes concurrent access
// safe and deterministically traceable. Shard returns an alias of the
// array (same identifier, same backing storage) whose accesses are
// recorded to rec instead of the parent's recorder; the result is
// asserted back to Array[T] by the executor (the untyped return keeps
// storage packages decoupled from this one). Shard returns nil when the
// array cannot be accessed concurrently — e.g. an enclave cost model is
// attached, whose paging simulation is order-dependent — in which case
// the executor degrades to sequential execution over the same schedule,
// preserving the canonical trace.
type Sharder interface {
	Traced() bool
	Recorder() trace.Recorder
	Shard(rec trace.Recorder) any
}

// PairOp is the branch-free operation applied to one comparator pair:
// element x at index i, element y at index j = i+hop, ordering towards
// dir. It must touch both elements regardless of their values.
type PairOp[T any] func(i, j int, dir uint64, x, y *T)

// chunkSize is the number of comparators one batched block processes:
// the unit of GetRange/SetRange batching and therefore of the canonical
// trace's run structure. It is a fixed constant — never derived from
// the worker count — so the recorded trace is identical for every
// degree of parallelism.
const chunkSize = 512

// spanChunk is the entry capacity of one coalesced span chunk (see
// runRound): adjacent dense segments are grouped until their combined
// footprint reaches this many entries. Like chunkSize it is a fixed
// constant, so the chunk cut — and with it the canonical trace — is a
// pure function of the round.
const spanChunk = 2 * chunkSize

// workerPool is the persistent process-wide pool that executes round
// partitions. Workers are started once, sized to GOMAXPROCS, and live
// for the life of the process; individual sorts only borrow them.
type workerPool struct {
	jobs chan func()
}

var (
	poolOnce sync.Once
	gPool    *workerPool
)

func sharedPool() *workerPool {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		p := &workerPool{jobs: make(chan func(), 4*n)}
		for i := 0; i < n; i++ {
			go func() {
				for f := range p.jobs {
					f()
				}
			}()
		}
		gPool = p
	})
	return gPool
}

// do runs every fn to completion before returning. fns[0] runs on the
// calling goroutine; the rest go to pool workers, falling back to
// inline execution when the pool is saturated so progress never waits
// on a busy worker.
//
// A panic in any fn (a sealed-block auth failure or spill IO fault on
// a parallel lane) is captured, every other fn still runs to the
// barrier, and the first panic value is then re-raised on the calling
// goroutine: no pool worker ever dies with an unrecovered panic taking
// the process down, and the store is never left with lanes still
// writing while the caller unwinds.
func (p *workerPool) do(fns []func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var (
		wg    sync.WaitGroup
		pmu   sync.Mutex
		pval  any
		pseen bool
	)
	guard := func(f func()) {
		defer func() {
			if r := recover(); r != nil {
				pmu.Lock()
				if !pseen {
					pval, pseen = r, true
				}
				pmu.Unlock()
			}
		}()
		f()
	}
	wg.Add(len(fns) - 1)
	for _, f := range fns[1:] {
		task := func() {
			defer wg.Done()
			guard(f)
		}
		select {
		case p.jobs <- task:
		default:
			task()
		}
	}
	guard(fns[0])
	wg.Wait()
	if pseen {
		panic(pval)
	}
}

// chunk is one canonically-cut unit of a round, in one of two forms.
//
// Pair form (span == nil): one block of a single segment's comparators
// (seg.Lo+off+k, seg.Lo+seg.Hop+off+k) for k ∈ [0, cnt), executed as
// two batched ranges (the low sides and the high sides).
//
// Span form (span != nil): a run of adjacent dense segments — each with
// Cnt == Hop, tiling the contiguous entry range [lo, lo+n) with no gap
// — executed as ONE batched range read, the compare–exchanges in local
// memory, and one batched range write. This is what keeps small-hop
// rounds batch-granular: without it a hop-h round decomposes into
// h-entry ranges, which defeats range batching (and block-sealed
// storage) exactly in the rounds that dominate the network.
type chunk struct {
	span     []Segment // span form: adjacent dense segments
	lo, n    int       // span form: covered entry range [lo, lo+n)
	seg      Segment   // pair form
	off, cnt int
}

// comparators returns the number of compare–exchanges the chunk holds.
func (c chunk) comparators() int {
	if c.span == nil {
		return c.cnt
	}
	return c.n / 2
}

// lane is one worker's execution context: a shard alias of the store, a
// private event buffer replayed at round barriers, and — for stores
// without in-place access — reusable value blocks for batched
// compare–exchange.
type lane[T any] struct {
	arr        Array[T]
	inPlace    InPlaceArray[T] // arr as InPlaceArray, or nil
	rng        RangeArray[T]   // arr as RangeArray, or nil
	buf        *trace.Buffer   // nil when the store is untraced
	bufX, bufY []T             // pair-form blocks (chunkSize each)
	bufS       []T             // span-form block (spanChunk)
}

// newLane builds a lane over arr. The value blocks are allocated only
// when the lane batches through a copy: in-place lanes run the ops on
// the store's own elements, and element-loop lanes need no blocks for
// pair chunks but do buffer span chunks.
func newLane[T any](arr Array[T], rng RangeArray[T], buf *trace.Buffer) lane[T] {
	l := lane[T]{arr: arr, rng: rng, buf: buf}
	if ip, ok := arr.(InPlaceArray[T]); ok {
		l.inPlace = ip
		return l
	}
	if rng != nil {
		l.bufX = make([]T, chunkSize)
		l.bufY = make([]T, chunkSize)
	}
	l.bufS = make([]T, spanChunk)
	return l
}

// roundExec executes rounds of disjoint comparator segments over one
// store. With workers == 1 it runs each chunk directly against the
// store, in canonical order. With workers > 1 it partitions each
// round's chunk list into contiguous spans, one per lane, runs the
// spans on the shared pool, and replays the lanes' event buffers into
// the store's recorder in lane order at the round barrier — which
// reproduces exactly the sequential canonical trace.
type roundExec[T any] struct {
	op      PairOp[T]
	workers int
	check   func()    // cancellation probe; nil = never cancelled
	seq     lane[T]   // direct-access lane for sequential execution
	lanes   []lane[T] // shard lanes, parallel mode only
	rec     trace.Recorder
	chunks  []chunk
	count   uint64 // comparators executed
}

func newRoundExec[T any](a Array[T], op PairOp[T], workers int, check func()) *roundExec[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ex := &roundExec[T]{op: op, workers: workers, check: check}
	baseRng, _ := a.(RangeArray[T])
	// The direct lane also serves single-chunk rounds in parallel mode.
	ex.seq = newLane(a, baseRng, nil)
	if workers > 1 {
		ex.lanes = makeLanes(a, baseRng != nil, workers)
		if ex.lanes == nil {
			ex.workers = 1
		} else if ex.lanes[0].buf != nil {
			ex.rec = a.(Sharder).Recorder()
		}
	}
	return ex
}

// makeLanes builds one shard lane per worker, or returns nil when the
// store cannot support concurrent execution (no Sharder, shard refused,
// or shards missing the range capability the base store has — which
// would change the canonical trace's run structure).
func makeLanes[T any](a Array[T], wantRange bool, workers int) []lane[T] {
	sh, ok := a.(Sharder)
	if !ok {
		return nil
	}
	traced := sh.Traced()
	lanes := make([]lane[T], workers)
	for w := range lanes {
		var buf *trace.Buffer
		var rec trace.Recorder
		if traced {
			buf = &trace.Buffer{}
			rec = buf
		}
		res := sh.Shard(rec)
		if res == nil {
			return nil
		}
		arr, ok := res.(Array[T])
		if !ok {
			return nil
		}
		rng, hasRange := arr.(RangeArray[T])
		if wantRange && !hasRange {
			return nil
		}
		if !wantRange {
			rng = nil
		}
		lanes[w] = newLane(arr, rng, buf)
	}
	return lanes
}

// runRound executes one round of disjoint segments. The cancellation
// probe runs on the scheduling goroutine only — at the round barrier
// in parallel mode, and between chunks in sequential mode — so an
// abort (the probe panics) never unwinds a pool worker and never
// interrupts a store access mid-flight.
func (ex *roundExec[T]) runRound(segs []Segment) {
	if ex.check != nil {
		ex.check()
	}
	// Cut segments into canonical chunks; the cut depends only on the
	// round, never on the worker count. Runs of adjacent dense
	// segments (Cnt == Hop, no coverage gap, footprint ≤ spanChunk
	// entries) coalesce into span chunks; everything else becomes
	// pair chunks of at most chunkSize comparators.
	ex.chunks = ex.chunks[:0]
	total := 0
	for i := 0; i < len(segs); {
		s := segs[i]
		total += s.Cnt
		if s.Cnt != s.Hop || 2*s.Cnt > spanChunk {
			for off := 0; off < s.Cnt; off += chunkSize {
				cnt := s.Cnt - off
				if cnt > chunkSize {
					cnt = chunkSize
				}
				ex.chunks = append(ex.chunks, chunk{seg: s, off: off, cnt: cnt})
			}
			i++
			continue
		}
		// Greedily extend the span while the next segment is dense,
		// exactly adjacent, and fits the fixed capacity.
		j, end := i+1, s.Lo+2*s.Cnt
		for j < len(segs) {
			t := segs[j]
			if t.Cnt != t.Hop || t.Lo != end || end+2*t.Cnt-s.Lo > spanChunk {
				break
			}
			total += t.Cnt
			end += 2 * t.Cnt
			j++
		}
		ex.chunks = append(ex.chunks, chunk{span: segs[i:j:j], lo: s.Lo, n: end - s.Lo})
		i = j
	}
	ex.count += uint64(total)
	if total == 0 {
		return
	}
	if ex.workers == 1 || len(ex.chunks) == 1 {
		for i, c := range ex.chunks {
			// Sequential rounds can be long (one round of a 64k sort is
			// tens of thousands of comparators); probing per chunk keeps
			// the cancellation latency at one chunk instead of one round.
			if ex.check != nil && i > 0 {
				ex.check()
			}
			ex.seq.runChunk(ex.op, c)
		}
		return
	}

	// Partition the chunk list into contiguous spans balanced by
	// comparator count, one span per lane, preserving canonical order.
	nw := ex.workers
	if nw > len(ex.chunks) {
		nw = len(ex.chunks)
	}
	target := (total + nw - 1) / nw
	fns := make([]func(), 0, nw)
	start, load, used := 0, 0, 0
	for i, c := range ex.chunks {
		load += c.comparators()
		// Cut when the span reached its target, keeping enough chunks
		// for the remaining lanes.
		if load >= target || len(ex.chunks)-i-1 == nw-used-1 {
			ln, lo, hi := &ex.lanes[used], start, i+1
			fns = append(fns, func() {
				for _, c := range ex.chunks[lo:hi] {
					ln.runChunk(ex.op, c)
				}
			})
			start, load = i+1, 0
			used++
			if used == nw {
				break
			}
		}
	}
	sharedPool().do(fns)
	// Round barrier: merge the lanes' event shards in canonical order.
	if ex.rec != nil {
		for i := range ex.lanes[:used] {
			ex.lanes[i].buf.ReplayTo(ex.rec)
		}
	}
}

// runChunk applies the op to every comparator of one chunk, batching
// the store accesses when the store supports ranges. The emitted event
// pattern — R-run(span), W-run(span) for span chunks; R-run(low side),
// R-run(high side), W-run(low side), W-run(high side) for pair chunks;
// or the interleaved per-pair pattern on stores without range support —
// is a function of the chunk alone. In-place stores emit the batched
// pattern too; only the copies are gone.
func (l *lane[T]) runChunk(op PairOp[T], c chunk) {
	if c.span != nil {
		l.runSpan(op, c)
		return
	}
	loX := c.seg.Lo + c.off
	loY := loX + c.seg.Hop
	if l.inPlace != nil {
		// The two sides are disjoint (Hop ≥ Cnt), so working on the
		// backing elements directly is the buffered computation.
		x := l.inPlace.ReadInPlace(loX, c.cnt)
		y := l.inPlace.ReadInPlace(loY, c.cnt)
		for k := range x {
			op(loX+k, loY+k, c.seg.Dir, &x[k], &y[k])
		}
		l.inPlace.WriteInPlace(loX, c.cnt)
		l.inPlace.WriteInPlace(loY, c.cnt)
		return
	}
	if l.rng != nil {
		x, y := l.bufX[:c.cnt], l.bufY[:c.cnt]
		l.rng.GetRange(loX, x)
		l.rng.GetRange(loY, y)
		for k := 0; k < c.cnt; k++ {
			op(loX+k, loY+k, c.seg.Dir, &x[k], &y[k])
		}
		l.rng.SetRange(loX, x)
		l.rng.SetRange(loY, y)
		return
	}
	for k := 0; k < c.cnt; k++ {
		i, j := loX+k, loY+k
		x, y := l.arr.Get(i), l.arr.Get(j)
		op(i, j, c.seg.Dir, &x, &y)
		l.arr.Set(i, x)
		l.arr.Set(j, y)
	}
}

// runSpan executes a span chunk: one contiguous read of the covered
// entry range, every segment's compare–exchanges in local memory, one
// contiguous write back.
func (l *lane[T]) runSpan(op PairOp[T], c chunk) {
	if l.inPlace != nil {
		spanOps(op, c, l.inPlace.ReadInPlace(c.lo, c.n))
		l.inPlace.WriteInPlace(c.lo, c.n)
		return
	}
	buf := l.bufS[:c.n]
	if l.rng != nil {
		l.rng.GetRange(c.lo, buf)
	} else {
		for k := range buf {
			buf[k] = l.arr.Get(c.lo + k)
		}
	}
	spanOps(op, c, buf)
	if l.rng != nil {
		l.rng.SetRange(c.lo, buf)
	} else {
		for k := range buf {
			l.arr.Set(c.lo+k, buf[k])
		}
	}
}

// spanOps runs every compare–exchange of span chunk c over buf, which
// holds the chunk's entries [c.lo, c.lo+c.n).
func spanOps[T any](op PairOp[T], c chunk, buf []T) {
	for _, s := range c.span {
		base := s.Lo - c.lo
		for k := 0; k < s.Cnt; k++ {
			op(s.Lo+k, s.Lo+s.Hop+k, s.Dir, &buf[base+k], &buf[base+s.Hop+k])
		}
	}
}

// RunTasks runs every fn to completion on the shared persistent pool
// (fns[0] on the calling goroutine). It is the raw fork–join primitive
// behind RunRounds, exported for the blocked parallel scans of
// internal/core, which partition linear passes the same way rounds are
// partitioned.
func RunTasks(fns []func()) {
	if len(fns) == 0 {
		return
	}
	sharedPool().do(fns)
}

// RunRounds executes a round schedule over a with op, using up to
// workers lanes (≤ 0 means GOMAXPROCS), and returns the number of
// comparator applications. schedule must call its argument once per
// round with segments whose pairs are disjoint within the round;
// RunRounds barriers between rounds. It is the execution engine behind
// the sorting networks and the routing network of internal/core.
func RunRounds[T any](a Array[T], op PairOp[T], workers int, schedule func(round func([]Segment))) uint64 {
	return RunRoundsCheck(a, op, workers, nil, schedule)
}

// RunRoundsCheck is RunRounds with a cancellation probe: check (when
// non-nil) is invoked on the scheduling goroutine at every round
// barrier — and between chunks of sequential rounds — and may panic to
// abort the run. Because the probe never runs on a pool worker, an
// abort unwinds only the caller's stack: lanes always finish the round
// they started, no store access is torn, and the shared pool keeps its
// workers. This is how a cancelled query stops an in-flight oblivious
// sort within one round.
func RunRoundsCheck[T any](a Array[T], op PairOp[T], workers int, check func(), schedule func(round func([]Segment))) uint64 {
	ex := newRoundExec(a, op, workers, check)
	schedule(ex.runRound)
	return ex.count
}
