package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
	"oblivjoin/internal/workload"
)

// SealedBenchResult is one row of the sealed-storage benchmark: the
// wall times and heap allocations of a bitonic sort and of the full
// join pipeline over plain, sealed (one entry per block) and
// block-sealed storage at one input size, plus the determinism evidence that all three
// stores record the identical canonical trace. As with the join bench,
// every record carries an explicit hash verdict or an explicit skip
// reason.
type SealedBenchResult struct {
	N       int `json:"n"`
	M       int `json:"m"`
	Workers int `json:"workers"`
	Block   int `json:"block"`

	PlainSortNS  int64 `json:"plain_sort_ns"`
	SealedSortNS int64 `json:"sealed_sort_ns"`
	BlockSortNS  int64 `json:"block_sort_ns"`

	PlainJoinNS  int64 `json:"plain_join_ns"`
	SealedJoinNS int64 `json:"sealed_join_ns"`
	BlockJoinNS  int64 `json:"block_join_ns"`

	PlainJoinAllocs  uint64 `json:"plain_join_allocs"`
	SealedJoinAllocs uint64 `json:"sealed_join_allocs"`
	BlockJoinAllocs  uint64 `json:"block_join_allocs"`

	// Per-backend allocation-gauge readings of the join phase —
	// deterministic functions of (n, block), gated by benchdiff like
	// the wall times.
	PlainPeakBytes   int64 `json:"plain_peak_bytes"`
	SealedPeakBytes  int64 `json:"sealed_peak_bytes"`
	BlockPeakBytes   int64 `json:"block_peak_bytes"`
	PlainTotalBytes  int64 `json:"plain_total_alloc_bytes"`
	SealedTotalBytes int64 `json:"sealed_total_alloc_bytes"`
	BlockTotalBytes  int64 `json:"block_total_alloc_bytes"`

	// SealedOverBlock is the speedup of the block-sealed join over the
	// one-entry-per-block sealed join (sealed_join_ns / block_join_ns).
	SealedOverBlock float64 `json:"sealed_over_block"`

	TraceDetEvents bool   `json:"trace_event_counts_equal"`
	TraceDetHash   bool   `json:"trace_hashes_equal"`
	TraceSkipped   string `json:"trace_hash_skipped,omitempty"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
}

// sealedAlloc is one storage backend of the sealed experiment.
type sealedAlloc struct {
	name  string
	alloc func(sp *memory.Space) table.Alloc
}

// BenchSealed times a 2n-entry bitonic sort and the full join pipeline
// over plain, sealed (one entry per block) and block-sealed storage at
// each input size, verifying that the three backends record identical canonical
// traces (event counts always; hashes up to hashCheckCap). workers ≤ 0
// means GOMAXPROCS; block ≤ 0 selects table.DefaultSealedBlock.
func BenchSealed(w io.Writer, ns []int, workers, block int) ([]SealedBenchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if block <= 0 {
		block = table.DefaultSealedBlock
	}
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		return nil, fmt.Errorf("exp: init cipher: %w", err)
	}
	backends := []sealedAlloc{
		{"plain", table.PlainAlloc},
		{"sealed", func(sp *memory.Space) table.Alloc { return table.BlockEncryptedAlloc(sp, cipher, 1) }},
		{"block-sealed", func(sp *memory.Space) table.Alloc { return table.BlockEncryptedAlloc(sp, cipher, block) }},
	}
	fmt.Fprintf(w, "Sealed-storage benchmark — plain vs sealed (B=1) vs block-sealed (B=%d, workers=%d, tracing on)\n",
		block, workers)
	fmt.Fprintf(w, "%8s %14s %14s %14s %14s %14s %14s %9s %s\n",
		"n", "plain sort", "sealed sort", "block sort", "plain join", "sealed join", "block join", "blk-gain", "trace")

	var out []SealedBenchResult
	for _, n := range ns {
		t1, t2 := workload.MatchingPairs(n)
		r := SealedBenchResult{N: n, Workers: workers, Block: block, GOMAXPROCS: runtime.GOMAXPROCS(0)}

		sorts := make([]time.Duration, len(backends))
		joins := make([]time.Duration, len(backends))
		allocs := make([]uint64, len(backends))
		peaks := make([]int64, len(backends))
		totals := make([]int64, len(backends))
		events := make([]uint64, len(backends))
		hashes := make([]string, len(backends))
		for i, be := range backends {
			// Sort: 2n entries (the size of the augmented working
			// table), untraced for pure store throughput.
			sp := memory.NewSpace(nil, nil)
			st := be.alloc(sp)(2 * n)
			src := make([]table.Entry, 2*n)
			for k := range src {
				src[k] = table.Entry{J: uint64((k * 2654435761) % n)}
			}
			st.(table.RangeStore).SetRange(0, src)
			cfg := &core.Config{Alloc: be.alloc(sp), Workers: workers}
			start := time.Now()
			cfg.SortStore(st, table.LessJTID, nil)
			sorts[i] = time.Since(start)

			// Join: traced, hashing up to the cap, with a heap
			// allocation count for the whole run.
			var rec trace.Recorder
			var hasher *trace.Hasher
			var counter trace.Counter
			if n <= hashCheckCap {
				hasher = trace.NewHasher()
				rec = hasher
			} else {
				rec = &counter
			}
			jsp := memory.NewSpace(rec, nil)
			g := &table.Gauge{}
			jcfg := &core.Config{Alloc: table.TrackedAlloc(be.alloc(jsp), g), Workers: workers, Mem: g}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start = time.Now()
			pairs := core.Join(jcfg, t1, t2)
			joins[i] = time.Since(start)
			runtime.ReadMemStats(&ms1)
			allocs[i] = ms1.Mallocs - ms0.Mallocs
			g.ReleaseAll()
			peaks[i], totals[i] = g.Peak(), g.Total()
			r.M = len(pairs)
			if hasher != nil {
				events[i] = hasher.Count()
				hashes[i] = hasher.Hex()
			} else {
				events[i] = counter.Total()
			}
		}
		r.PlainSortNS, r.SealedSortNS, r.BlockSortNS = sorts[0].Nanoseconds(), sorts[1].Nanoseconds(), sorts[2].Nanoseconds()
		r.PlainJoinNS, r.SealedJoinNS, r.BlockJoinNS = joins[0].Nanoseconds(), joins[1].Nanoseconds(), joins[2].Nanoseconds()
		r.PlainJoinAllocs, r.SealedJoinAllocs, r.BlockJoinAllocs = allocs[0], allocs[1], allocs[2]
		r.PlainPeakBytes, r.SealedPeakBytes, r.BlockPeakBytes = peaks[0], peaks[1], peaks[2]
		r.PlainTotalBytes, r.SealedTotalBytes, r.BlockTotalBytes = totals[0], totals[1], totals[2]
		if r.BlockJoinNS > 0 {
			r.SealedOverBlock = float64(r.SealedJoinNS) / float64(r.BlockJoinNS)
		}
		r.TraceDetEvents = events[0] == events[1] && events[1] == events[2]
		det := "events=eq"
		if !r.TraceDetEvents {
			det = "events=DIVERGED"
		}
		if hashes[0] != "" {
			r.TraceDetHash = hashes[0] == hashes[1] && hashes[1] == hashes[2]
			if r.TraceDetHash {
				det += " hash=eq"
			} else {
				det += " hash=DIVERGED"
			}
		} else {
			r.TraceSkipped = fmt.Sprintf("n exceeds hash check cap %d", hashCheckCap)
			det += " hash=skipped"
		}
		if !r.TraceDetEvents || (hashes[0] != "" && !r.TraceDetHash) {
			for i := 1; i < len(backends); i++ {
				if events[i] != events[0] || hashes[i] != hashes[0] {
					return nil, fmt.Errorf("exp: %s trace diverged from plain at n=%d", backends[i].name, n)
				}
			}
			return nil, fmt.Errorf("exp: sealed trace diverged from plain at n=%d", n)
		}
		fmt.Fprintf(w, "%8d %14s %14s %14s %14s %14s %14s %8.2fx %s\n", n,
			sorts[0].Round(time.Microsecond), sorts[1].Round(time.Microsecond), sorts[2].Round(time.Microsecond),
			joins[0].Round(time.Microsecond), joins[1].Round(time.Microsecond), joins[2].Round(time.Microsecond),
			r.SealedOverBlock, det)
		out = append(out, r)
	}
	return out, nil
}

// WriteSealedBenchJSON writes the sealed benchmark rows as indented
// JSON to path.
func WriteSealedBenchJSON(path string, results []SealedBenchResult) error {
	return writeJSON(path, results)
}
