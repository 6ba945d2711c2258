package core

import (
	"testing"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// bufferedStore exposes a plain array through Get/Set, the range
// methods and Sharder only — no in-place access — so every sort and
// routing round over it takes the buffered copy-out/copy-back path.
type bufferedStore struct{ a *memory.Array[table.Entry] }

func (b bufferedStore) Len() int                           { return b.a.Len() }
func (b bufferedStore) Get(i int) table.Entry              { return b.a.Get(i) }
func (b bufferedStore) Set(i int, e table.Entry)           { b.a.Set(i, e) }
func (b bufferedStore) GetRange(lo int, dst []table.Entry) { b.a.GetRange(lo, dst) }
func (b bufferedStore) SetRange(lo int, src []table.Entry) { b.a.SetRange(lo, src) }
func (b bufferedStore) Traced() bool                       { return b.a.Traced() }
func (b bufferedStore) Recorder() trace.Recorder           { return b.a.Recorder() }
func (b bufferedStore) Shard(rec trace.Recorder) any {
	return bufferedStore{b.a.Shard(rec).(*memory.Array[table.Entry])}
}

func bufferedAlloc(sp *memory.Space) table.Alloc {
	return func(n int) table.Store { return bufferedStore{memory.Alloc[table.Entry](sp, n, table.EncodedSize)} }
}

func inPlaceCapable(st table.Store) bool {
	_, ok := st.(bitonic.InPlaceArray[table.Entry])
	return ok
}

func windowOf(st table.Store, off, size int) (table.Store, bool) {
	w := window(st, off, size)
	return w, inPlaceCapable(w)
}

// TestJoinInPlaceMatchesBuffered runs the whole join — its bitonic or
// merge-exchange sorts, the routing network of the distribute and the
// windowed views — over plain memory (in-place path) and over the
// buffered wrapper, and requires identical results, comparator and
// route-op counts, event logs and trace hashes at every parallelism
// degree, traced and untraced.
func TestJoinInPlaceMatchesBuffered(t *testing.T) {
	t1, t2 := pinRows()
	t1, t2 = t1[:500], t2[:700] // TC of 1200 entries: span and pair chunks
	type outcome struct {
		out  []table.Pair
		st   Stats
		log  *trace.Log
		hash string
	}
	run := func(net SortNet, workers int, traced, buffered bool) outcome {
		var o outcome
		h := trace.NewHasher()
		var rec trace.Recorder
		if traced {
			o.log = trace.NewLog()
			rec = trace.NewTee(o.log, h)
		}
		sp := memory.NewSpace(rec, nil)
		alloc := table.PlainAlloc(sp)
		if buffered {
			alloc = bufferedAlloc(sp)
		}
		o.out = Join(&Config{Alloc: alloc, Net: net, Workers: workers, Stats: &o.st}, t1, t2)
		o.hash = h.Hex()
		return o
	}
	for _, net := range []SortNet{Bitonic, MergeExchange} {
		for _, traced := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				in := run(net, workers, traced, false)
				buf := run(net, workers, traced, true)
				if digestPairs(in.out) != digestPairs(buf.out) {
					t.Fatalf("net=%v traced=%v workers=%d: results differ", net, traced, workers)
				}
				if in.st.Comparators() != buf.st.Comparators() || in.st.RouteOps != buf.st.RouteOps {
					t.Fatalf("net=%v traced=%v workers=%d: counts differ: %d/%d comparators, %d/%d route ops",
						net, traced, workers, in.st.Comparators(), buf.st.Comparators(), in.st.RouteOps, buf.st.RouteOps)
				}
				if traced {
					if !in.log.Equal(buf.log) {
						t.Fatalf("net=%v workers=%d: event logs diverge at %d", net, workers, in.log.FirstDivergence(buf.log))
					}
					if in.hash != buf.hash {
						t.Fatalf("net=%v workers=%d: trace hashes differ", net, workers)
					}
				}
			}
		}
	}
}

// TestWindowForwardsInPlace checks that windows over plain memory keep
// the in-place capability at the right offset (shards included), that
// windows over other stores do not claim it, and that ReleaseStore
// unwraps both kinds of window.
func TestWindowForwardsInPlace(t *testing.T) {
	sp := memory.NewSpace(nil, nil)
	plain := table.PlainAlloc(sp)(4)
	for i := 0; i < 4; i++ {
		plain.Set(i, table.Entry{J: uint64(i)})
	}
	w, ok := windowOf(plain, 1, 2)
	if !ok {
		t.Fatal("window over plain memory lost the in-place capability")
	}
	es := w.(bitonic.InPlaceArray[table.Entry]).ReadInPlace(0, 2)
	if len(es) != 2 || es[0].J != 1 || es[1].J != 2 {
		t.Fatalf("ReadInPlace through the window = %+v", es)
	}
	es[1].J = 99
	if plain.Get(2).J != 99 {
		t.Fatal("in-place write did not reach the backing store")
	}
	if !inPlaceCapable(w.(bitonic.Sharder).Shard(nil).(table.Store)) {
		t.Fatal("shard of a plain window lost the in-place capability")
	}
	if _, ok := windowOf(bufferedAlloc(sp)(4), 1, 2); ok {
		t.Fatal("window over a buffered store claims in-place access")
	}

	g := &table.Gauge{}
	cfg := &Config{Alloc: table.TrackedAlloc(table.PlainAlloc(sp), g), Mem: g}
	st := cfg.Alloc(8)
	live := g.Live()
	cfg.ReleaseStore(window(window(st, 1, 6), 1, 4))
	if live == 0 || g.Live() != 0 {
		t.Fatalf("releasing a nested window: live %d before, %d after", live, g.Live())
	}
}
