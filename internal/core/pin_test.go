package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// This file pins the canonical trace of the compare-exchange kernel
// across commits, not only across execution paths: the constants below
// were recorded once and every later implementation of the sorting
// networks, the routing network, the comparators and the store access
// paths must reproduce them exactly. A change that alters a trace hash,
// a comparator count, a route-op count, the enclave cost model's
// accounting or a result here changes the observable behaviour of the
// join and is not a pure optimisation.

// pinPayload builds a 16-byte payload whose bytes vary at both word
// boundaries (byte 7 vs byte 8), saturate at 0x00/0xff and share long
// prefixes, so the payload comparators' tie-breaking is exercised.
func pinPayload(i int) table.Data {
	var d table.Data
	d[0] = byte(i % 3)
	d[7] = byte(0xff * ((i >> 1) & 1))
	d[8] = byte((i * 37) % 251)
	d[15] = byte(0x80 | i%5)
	return d
}

// pinRows returns the fixed, non-power-of-two join input: 700 × 900
// rows over 401 keys, so groups tie heavily and payloads tie on
// prefixes.
func pinRows() (t1, t2 []table.Row) {
	for i := 0; i < 700; i++ {
		t1 = append(t1, table.Row{J: uint64((i * 7) % 401), D: pinPayload(i)})
	}
	for i := 0; i < 900; i++ {
		t2 = append(t2, table.Row{J: uint64((i * 11) % 397), D: pinPayload(i + 1)})
	}
	return t1, t2
}

// pinEntries returns the fixed input of the pinned bitonic sort.
func pinEntries() []table.Entry {
	es := make([]table.Entry, 1500)
	for i := range es {
		es[i] = table.Entry{J: uint64((i * 13) % 211), TID: uint64(1 + i%2), D: pinPayload(i)}
	}
	return es
}

type pinned struct {
	hash        string // canonical trace hash
	events      uint64 // trace length
	comparators uint64
	routeOps    uint64
	result      string // SHA-256 of the result, hex
	accesses    uint64 // enclave cost model: charged accesses
	faults      uint64 // enclave cost model: page faults
}

// pinCost is an enclave cost model small enough to fault, so the pinned
// accounting covers the per-element charging order.
func pinCost() *memory.CostModel {
	return &memory.CostModel{PageSize: 4096, EPCBytes: 64 << 10}
}

func digestPairs(ps []table.Pair) string {
	h := sha256.New()
	for _, p := range ps {
		h.Write(p.D1[:])
		h.Write(p.D2[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestEntries(es []table.Entry) string {
	h := sha256.New()
	var buf [table.EncodedSize]byte
	for i := range es {
		es[i].Encode(buf[:])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPinnedJoin joins pinRows on the plain store with the given network
// and parallelism, optionally under the cost model.
func runPinnedJoin(net SortNet, workers int, cost *memory.CostModel) pinned {
	t1, t2 := pinRows()
	h := trace.NewHasher()
	sp := memory.NewSpace(h, cost)
	var st Stats
	out := Join(&Config{Alloc: table.PlainAlloc(sp), Net: net, Workers: workers, Stats: &st}, t1, t2)
	p := pinned{hash: h.Hex(), events: h.Count(), comparators: st.Comparators(), routeOps: st.RouteOps, result: digestPairs(out)}
	if cost != nil {
		p.accesses, p.faults = cost.Accesses, cost.Faults
	}
	return p
}

// runPinnedSort sorts pinEntries with LessTIDJD over a plain store.
func runPinnedSort(workers int, cost *memory.CostModel) pinned {
	h := trace.NewHasher()
	sp := memory.NewSpace(h, cost)
	es := pinEntries()
	var bs bitonic.Stats
	bitonic.SortParallel[table.Entry](memory.FromSlice(sp, es, table.EncodedSize), table.LessTIDJD, table.CondSwapEntry, &bs, workers)
	p := pinned{hash: h.Hex(), events: h.Count(), comparators: bs.CompareExchanges, result: digestEntries(es)}
	if cost != nil {
		p.accesses, p.faults = cost.Accesses, cost.Faults
	}
	return p
}

func TestCanonicalTracePinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(workers int, cost *memory.CostModel) pinned
		want pinned
	}{
		{
			name: "join/bitonic",
			run:  func(w int, c *memory.CostModel) pinned { return runPinnedJoin(Bitonic, w, c) },
			want: pinned{
				hash:        "d2a49b499f6018cbffc892d71d1bceb0c11b828b3b263bfa57473d1885cb00b6",
				events:      1083400,
				comparators: 233328,
				routeOps:    30402,
				result:      "eb70595d485814acb128e9f82e376333c44053b1202b3ec7f885eadf415d09a4",
				accesses:    1083400,
				faults:      12207,
			},
		},
		{
			name: "join/merge-exchange",
			run:  func(w int, c *memory.CostModel) pinned { return runPinnedJoin(MergeExchange, w, c) },
			want: pinned{
				hash:        "c86ae9dbcc7f8462a704c6f589fe45b8220945bce7a3e334402f6d809f1e9114",
				events:      1007860,
				comparators: 214443,
				routeOps:    30402,
				result:      "eb70595d485814acb128e9f82e376333c44053b1202b3ec7f885eadf415d09a4",
				accesses:    1007860,
				faults:      10819,
			},
		},
		{
			name: "sort/LessTIDJD",
			run:  runPinnedSort,
			want: pinned{
				hash:        "bdd40cacc9fd5cecd127a172cc242b2990475f034621ad67978d16b63ef79931",
				events:      174264,
				comparators: 43566,
				result:      "689fc7fb376e31bfb8055a9ac51dcc857fcf4fae25405dc71f5226b6443f80f3",
				accesses:    174264,
				faults:      1914,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				got := tc.run(workers, nil)
				want := tc.want
				want.accesses, want.faults = 0, 0
				if got != want {
					t.Errorf("workers=%d: got %+v, pinned %+v", workers, got, want)
				}
			}
			if got := tc.run(2, pinCost()); got != tc.want {
				t.Errorf("cost model: got %+v, pinned %+v", got, tc.want)
			}
		})
	}
}
