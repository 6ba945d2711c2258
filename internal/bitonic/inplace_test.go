package bitonic

import (
	"math/rand"
	"runtime"
	"testing"

	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// bufferedArray exposes a plain array through Get/Set, the range
// methods and Sharder only — no in-place access — so the executor takes
// the buffered copy-out/copy-back path over the same memory.
type bufferedArray[T any] struct{ a *memory.Array[T] }

func (b bufferedArray[T]) Len() int                 { return b.a.Len() }
func (b bufferedArray[T]) Get(i int) T              { return b.a.Get(i) }
func (b bufferedArray[T]) Set(i int, v T)           { b.a.Set(i, v) }
func (b bufferedArray[T]) GetRange(lo int, dst []T) { b.a.GetRange(lo, dst) }
func (b bufferedArray[T]) SetRange(lo int, src []T) { b.a.SetRange(lo, src) }
func (b bufferedArray[T]) Traced() bool             { return b.a.Traced() }
func (b bufferedArray[T]) Recorder() trace.Recorder { return b.a.Recorder() }
func (b bufferedArray[T]) Shard(rec trace.Recorder) any {
	sh := b.a.Shard(rec)
	if sh == nil {
		return nil
	}
	return bufferedArray[T]{sh.(*memory.Array[T])}
}

func tiedEntries(rng *rand.Rand, n int) []table.Entry {
	es := make([]table.Entry, n)
	for i := range es {
		var d table.Data
		d[7], d[8] = byte(rng.Intn(3)), byte(rng.Intn(3))
		es[i] = table.Entry{J: uint64(rng.Intn(n / 8)), TID: uint64(1 + rng.Intn(2)), D: d, F: uint64(rng.Intn(n))}
	}
	return es
}

// hopOp is a routing-style PairOp (like the distribute network of
// internal/core): it uses the pair's absolute high index, not a
// comparator.
func hopOp(_, j int, _ uint64, x, y *table.Entry) {
	table.CondSwapEntry(uint64(x.F>>1)&1^uint64(j)&1, x, y)
}

// routeRounds is a fixed non-sorting schedule of single-segment rounds
// with shrinking power-of-two hops.
func routeRounds(n int) func(round func([]Segment)) {
	return func(round func([]Segment)) {
		seg := make([]Segment, 1)
		for hop := 1024; hop >= 1; hop >>= 2 {
			for lo := 0; lo+2*hop <= n; lo += 2 * hop {
				seg[0] = Segment{Lo: lo, Cnt: hop, Hop: hop, Dir: 1}
				round(seg)
			}
		}
	}
}

// TestInPlaceMatchesBuffered runs the same networks over a plain array
// (in-place path) and over the buffered wrapper: results, comparator
// counts, exact event logs and trace hashes must be equal at every
// parallelism degree, traced and untraced.
func TestInPlaceMatchesBuffered(t *testing.T) {
	const n = 3000 // not a power of two: both pair and span chunks occur
	src := tiedEntries(rand.New(rand.NewSource(5)), n)
	networks := []struct {
		name string
		run  func(a Array[table.Entry], workers int) uint64
	}{
		{"bitonic", func(a Array[table.Entry], w int) uint64 {
			var st Stats
			SortParallel(a, table.LessTIDJD, table.CondSwapEntry, &st, w)
			return st.CompareExchanges
		}},
		{"merge-exchange", func(a Array[table.Entry], w int) uint64 {
			var st Stats
			MergeExchangeSortParallel(a, table.LessJD, table.CondSwapEntry, &st, w)
			return st.CompareExchanges
		}},
		{"routing", func(a Array[table.Entry], w int) uint64 {
			return RunRounds[table.Entry](a, hopOp, w, routeRounds(a.Len()))
		}},
	}
	type outcome struct {
		data  []table.Entry
		count uint64
		log   *trace.Log
		hash  string
	}
	run := func(net func(Array[table.Entry], int) uint64, workers int, traced, buffered bool) outcome {
		var o outcome
		h := trace.NewHasher()
		var rec trace.Recorder
		if traced {
			o.log = trace.NewLog()
			rec = trace.NewTee(o.log, h)
		}
		o.data = append([]table.Entry(nil), src...)
		var a Array[table.Entry] = memory.FromSlice(memory.NewSpace(rec, nil), o.data, table.EncodedSize)
		if buffered {
			a = bufferedArray[table.Entry]{a.(*memory.Array[table.Entry])}
		}
		o.count = net(a, workers)
		o.hash = h.Hex()
		return o
	}
	for _, nw := range networks {
		for _, traced := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				in := run(nw.run, workers, traced, false)
				buf := run(nw.run, workers, traced, true)
				for i := range in.data {
					if in.data[i] != buf.data[i] {
						t.Fatalf("%s traced=%v workers=%d: results differ at %d", nw.name, traced, workers, i)
					}
				}
				if in.count != buf.count {
					t.Fatalf("%s traced=%v workers=%d: %d comparators in place, %d buffered", nw.name, traced, workers, in.count, buf.count)
				}
				if traced {
					if !in.log.Equal(buf.log) {
						t.Fatalf("%s workers=%d: event logs diverge at %d", nw.name, workers, in.log.FirstDivergence(buf.log))
					}
					if in.hash != buf.hash {
						t.Fatalf("%s workers=%d: trace hashes differ", nw.name, workers)
					}
				}
			}
		}
	}
}

// allocBytes returns the heap bytes fn allocates, averaged over reps.
func allocBytes(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// TestInPlaceSortAllocations gates the in-place path's footprint: a
// sequential plain-memory sort of 8192 entries may allocate less than
// one span block of entries beyond what enumerating its schedule costs.
// The buffered path allocates its pair and span blocks (2048 entries)
// on every sort.
func TestInPlaceSortAllocations(t *testing.T) {
	const n = 8192
	es := tiedEntries(rand.New(rand.NewSource(6)), n)
	a := memory.FromSlice(memory.NewSpace(nil, nil), es, table.EncodedSize)
	sortBytes := allocBytes(5, func() { Sort[table.Entry](a, table.LessTIDJD, table.CondSwapEntry, nil) })
	schedBytes := allocBytes(5, func() { bitonicRounds(n, func([]Segment) {}) })
	if limit := float64(spanChunk * table.EncodedSize); sortBytes-schedBytes >= limit {
		t.Fatalf("sort of %d entries allocates %.0f bytes beyond its schedule (%.0f), want < %.0f",
			n, sortBytes-schedBytes, schedBytes, limit)
	}
}

func BenchmarkSortEntries8k(b *testing.B) {
	es := tiedEntries(rand.New(rand.NewSource(7)), 8192)
	work := make([]table.Entry, len(es))
	a := memory.FromSlice(memory.NewSpace(nil, nil), work, table.EncodedSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(work, es)
		Sort[table.Entry](a, table.LessTIDJD, table.CondSwapEntry, nil)
	}
}
