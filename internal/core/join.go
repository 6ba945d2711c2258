package core

import (
	"time"

	"oblivjoin/internal/table"
)

// Join computes the binary equi-join of two unsorted tables using the
// full oblivious pipeline of Algorithm 1. The result contains one
// (d1, d2) pair per matching pair of input rows, ordered by
// (j, d1, alignment); its length m is public.
func Join(cfg *Config, rows1, rows2 []table.Row) []table.Pair {
	return joinSlices(cfg, rows1, rows2, func(e1, e2 *table.Entry) table.Pair {
		return table.Pair{D1: e1.D, D2: e2.D}
	})
}

// JoinKeyed is Join but retains the join value in each output row,
// making the result directly re-joinable (the composition §7 of the
// paper sketches for multi-way joins). The extra column changes nothing
// about the access pattern: S1 is read at the same indices either way.
func JoinKeyed(cfg *Config, rows1, rows2 []table.Row) []table.KeyedPair {
	return joinSlices(cfg, rows1, rows2, keyedPair)
}

// JoinKeyedFeed2 is JoinKeyed with both tables supplied batch-wise:
// upstream batches append straight into TC (no staging slices). A slice
// is a one-batch feed (RowsFeed), and the feed's batching never shows
// in the trace (see AugmentTablesFeed2).
func JoinKeyedFeed2(cfg *Config, feed1, feed2 RowFeed) ([]table.KeyedPair, error) {
	return join(cfg, feed1, feed2, keyedPair)
}

func keyedPair(e1, e2 *table.Entry) table.KeyedPair {
	return table.KeyedPair{J: e1.J, D1: e1.D, D2: e2.D}
}

// joinSlices runs join over two in-memory tables, which cannot fail.
func joinSlices[P any](cfg *Config, rows1, rows2 []table.Row, pair func(e1, e2 *table.Entry) P) []P {
	out, err := join(cfg, RowsFeed(rows1), RowsFeed(rows2), pair)
	mustRowsFeed(err)
	return out
}

// join is the one body of Algorithm 1: Augment-Tables over the two
// feeds, the two expands, Align-Table and the zip, which emits
// pair(e1, e2) per aligned entry pair. The join's internal stores are
// released into the run's gauge the moment the pipeline is done with
// them — TC after the two expands, S1 and S2 after the zip — so a
// streaming query's peak is the phase maximum, not the sum.
func join[P any](cfg *Config, feed1, feed2 RowFeed, pair func(e1, e2 *table.Entry) P) ([]P, error) {
	if cfg.Alloc == nil {
		panic("core: Config.Alloc is required")
	}
	st := cfg.stats()
	st.N1, st.N2 = feed1.Len(), feed2.Len()

	t0 := time.Now()
	tc, t1, t2, m, err := AugmentTablesFeed2(cfg, feed1, feed2)
	if err != nil {
		return nil, err
	}
	st.TAugment += time.Since(t0)
	st.M = m

	s1 := ObliviousExpand(cfg, t1, GAlpha2, m)
	s2 := ObliviousExpand(cfg, t2, GAlpha1, m)
	cfg.ReleaseStore(tc)
	AlignTable(cfg, s2)

	t0 = time.Now()
	out := make([]P, m)
	zipStores(cfg, s1, s2, m, func(i int, e1, e2 *table.Entry) {
		out[i] = pair(e1, e2)
	})
	cfg.ReleaseStore(s1)
	cfg.ReleaseStore(s2)
	st.TZip += time.Since(t0)
	return out, nil
}

// zipStores reads s1 and s2 in lockstep blocks (batched when the
// stores support ranges) and hands each aligned entry pair to fn,
// probing for cancellation at block boundaries.
func zipStores(cfg *Config, s1, s2 table.Store, m int, fn func(i int, e1, e2 *table.Entry)) {
	const blk = 1024
	check := cfg.checkFn()
	var b1, b2 [blk]table.Entry
	for lo := 0; lo < m; lo += blk {
		if check != nil && lo > 0 {
			check()
		}
		cnt := m - lo
		if cnt > blk {
			cnt = blk
		}
		loadRange(s1, lo, b1[:cnt])
		loadRange(s2, lo, b2[:cnt])
		for k := 0; k < cnt; k++ {
			fn(lo+k, &b1[k], &b2[k])
		}
	}
}

// OutputSize runs only the Augment-Tables stage and reports the join's
// output cardinality m without materializing it. The paper's two-stage
// circuit decomposition (§3.4, constraint 3) needs exactly this value
// before the second, m-parameterized stage is laid out.
func OutputSize(cfg *Config, rows1, rows2 []table.Row) int {
	if cfg.Alloc == nil {
		panic("core: Config.Alloc is required")
	}
	_, _, _, m := AugmentTables(cfg, rows1, rows2)
	return m
}
