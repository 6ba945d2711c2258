package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"oblivjoin"
	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/catalog"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
	"oblivjoin/internal/wal"
)

// Layer probes call one layer's public functions on fixed inputs and
// time them from here. Each repeats its call and reports a median.

const (
	probeReps    = 5
	probeEntries = 2 * pkfkRows // the augmented table of join-pkfk
	probeCommits = 64           // writes timed by the catalog and WAL probes
)

func mbPerS(bytes int, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

func medianDur(f func() time.Duration, reps int) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = f()
	}
	return quantile(ds, 0.5)
}

func randomEntries(rng *rand.Rand, n int) []table.Entry {
	es := make([]table.Entry, n)
	for i := range es {
		es[i] = table.Entry{J: uint64(rng.Intn(n)), TID: uint64(1 + i%2), D: payload(rng)}
	}
	return es
}

// probeBitonic times bitonic.Sort with table.LessTIDJD over the
// augmented table of join-pkfk, sequentially and at nproc lanes.
func probeBitonic(m metrics, rng *rand.Rand, nproc int) {
	src := randomEntries(rng, probeEntries)
	st := table.PlainAlloc(memory.NewSpace(nil, nil))(probeEntries).(table.RangeStore)
	var cmpx uint64
	sorted := func(sortFn func(*bitonic.Stats)) time.Duration {
		st.SetRange(0, src)
		var bs bitonic.Stats
		t0 := time.Now()
		sortFn(&bs)
		d := time.Since(t0)
		cmpx = bs.CompareExchanges
		return d
	}
	seq := medianDur(func() time.Duration {
		return sorted(func(bs *bitonic.Stats) { bitonic.Sort[table.Entry](st, table.LessTIDJD, table.CondSwapEntry, bs) })
	}, probeReps)
	par := func(bs *bitonic.Stats) {
		bitonic.SortParallel[table.Entry](st, table.LessTIDJD, table.CondSwapEntry, bs, nproc)
	}
	lanes := medianDur(func() time.Duration { return sorted(par) }, probeReps)
	before := snapshot()
	for i := 0; i < probeReps; i++ {
		sorted(par)
	}
	alloc := snapshot().allocBytes - before.allocBytes
	m.add("bitonic.ns_per_cmpx", float64(seq.Nanoseconds())/float64(cmpx), "ns")
	m.add("bitonic.lane_speedup", float64(seq)/float64(lanes), "ratio")
	m.add("bitonic.alloc_mb_per_sort", float64(alloc)/(1<<20)/probeReps, "MB")
}

// probeStores times the sealed block store and a spill store, each
// written whole and read back whole.
func probeStores(m metrics, rng *rand.Rand, dir string) error {
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		return err
	}
	src := randomEntries(rng, probeEntries)
	dst := make([]table.Entry, probeEntries)
	bytes := probeEntries * table.EncodedSize
	sp := memory.NewSpace(nil, nil)
	sealed := table.NewBlockEncrypted(sp, cipher, probeEntries, 0)
	set := medianDur(func() time.Duration {
		t0 := time.Now()
		sealed.SetRange(0, src)
		return time.Since(t0)
	}, probeReps)
	get := medianDur(func() time.Duration {
		t0 := time.Now()
		sealed.GetRange(0, dst)
		return time.Since(t0)
	}, probeReps)
	if !slices.Equal(src, dst) {
		return fmt.Errorf("sealed store probe: read back differs from what was written")
	}
	m.add("table.sealed_get_mb_s", mbPerS(bytes, get), "MB/s")
	m.add("table.sealed_set_mb_s", mbPerS(bytes, set), "MB/s")

	var spillErr error
	spill := medianDur(func() time.Duration {
		t0 := time.Now()
		s, err := table.NewSpill(sp, cipher, dir, probeEntries, 0)
		if err != nil {
			spillErr = err
			return 0
		}
		s.SetRange(0, src)
		s.GetRange(0, dst)
		d := time.Since(t0)
		s.Remove()
		if !slices.Equal(src, dst) {
			spillErr = fmt.Errorf("spill probe: read back differs from what was written")
		}
		return d
	}, probeReps)
	if spillErr != nil {
		return spillErr
	}
	m.add("table.spill_mb_s", mbPerS(2*bytes, spill), "MB/s")
	return nil
}

// probeCrypto times SealRange and OpenRange over one default block.
func probeCrypto(m metrics) error {
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		return err
	}
	const calls = 2000
	pt := table.DefaultSealedBlock * table.EncodedSize
	plain := make([]byte, pt)
	sealed := make([]byte, crypto.SealedLen(pt))
	seal := medianDur(func() time.Duration {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			cipher.SealRange(sealed, plain, pt)
		}
		return time.Since(t0)
	}, probeReps)
	var openErr error
	open := medianDur(func() time.Duration {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if err := cipher.OpenRange(plain, sealed, pt); err != nil {
				openErr = err
			}
		}
		return time.Since(t0)
	}, probeReps)
	if openErr != nil {
		return openErr
	}
	m.add("crypto.seal_mb_s", mbPerS(calls*pt, seal), "MB/s")
	m.add("crypto.open_mb_s", mbPerS(calls*pt, open), "MB/s")
	return nil
}

// probeWrites times a sealed in-memory Catalog.Replace and a WAL
// Append + Sync of one ingest-mixed table in dir's filesystem.
func probeWrites(m metrics, rng *rand.Rand, dir string) error {
	cipher, _, err := crypto.NewRandom()
	if err != nil {
		return err
	}
	versions := [2][]table.Row{makeRows(rng, pairedKeys(rng, ingestRows)), makeRows(rng, pairedKeys(rng, ingestRows))}
	cat := catalog.NewSealed(cipher)
	if err := cat.Register("t", versions[0]); err != nil {
		return err
	}
	replace := make([]time.Duration, probeCommits)
	for i := range replace {
		t0 := time.Now()
		if err := cat.Replace("t", versions[(i+1)%2]); err != nil {
			return err
		}
		replace[i] = time.Since(t0)
	}
	m.add("catalog.replace_us", us(quantile(replace, 0.5)), "us")

	path := filepath.Join(dir, "probe.wal")
	log, err := wal.Create(path, cipher, 0)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer log.Close()
	base := log.Size()
	appends := make([]time.Duration, probeCommits)
	for i := range appends {
		t0 := time.Now()
		err := log.Append(wal.Record{Op: wal.OpReplace, Version: uint64(i + 1), Name: "t", Rows: versions[i%2]})
		if err == nil {
			err = log.Sync()
		}
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		appends[i] = time.Since(t0)
	}
	m.add("wal.append_sync_us", us(quantile(appends, 0.5)), "us")
	m.add("wal.bytes_per_commit", float64(log.Size()-base)/probeCommits, "bytes")
	return nil
}

// probeSnapshot times Service.Checkpoint on svc's catalog. A
// checkpoint with nothing committed since the last one returns at once,
// so each timed call follows one untimed write: Replace of table name
// with rows.
func probeSnapshot(m metrics, svc *service.Service, name string, rows []table.Row) error {
	var err error
	d := medianDur(func() time.Duration {
		if e := svc.Replace(name, rows); e != nil {
			err = e
		}
		t0 := time.Now()
		if e := svc.Checkpoint(); e != nil {
			err = e
		}
		return time.Since(t0)
	}, probeReps)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	m.add("wal.snapshot_ms", ms(d), "ms")
	return nil
}

// probeQuery times query.Parse and planning (BuildPlan + LowerPlan +
// ComputePlanCost) on the workload's statements.
func probeQuery(m metrics, w *workload, opts query.Options, tabs map[string][]table.Row) error {
	const reps = 200
	card := query.StaticCard{}
	for n, rows := range tabs {
		card[n] = len(rows)
	}
	has := func(n string) bool { _, ok := card[n]; return ok }
	var parse, plan []time.Duration
	for _, s := range w.stmts {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			q, err := query.Parse(s.sql)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("parse %q: %w", s.sql, err)
			}
			p, err := query.BuildPlan(q, has)
			if err == nil {
				_, err = query.LowerPlan(p)
			}
			if err != nil {
				return fmt.Errorf("plan %q: %w", s.sql, err)
			}
			query.ComputePlanCost(p, card, opts)
			parse = append(parse, t1.Sub(t0))
			plan = append(plan, time.Since(t1))
		}
	}
	m.add("query.parse_us", us(quantile(parse, 0.5)), "us")
	m.add("query.plan_us", us(quantile(plan, 0.5)), "us")
	return nil
}

// probeCore profiles the workload's bare join when its window runs no
// bare joins: the same pair and store mode, CollectStats on.
func probeCore(w *workload, e *env, tabs map[string][]table.Row) (*profile, error) {
	pr := newProfile()
	left, right := oblivjoin.FromRows(tabs[w.joinL]), oblivjoin.FromRows(tabs[w.joinR])
	opts := oblivjoin.Options{Workers: e.nproc, Encrypted: w.sealedJoin, CollectStats: true}
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		res, err := oblivjoin.Join(left, right, &opts)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		pr.joinOp(d, res.Stats)
	}
	return pr, nil
}

// probeSQL profiles the workload's statements through a service when
// its window runs none: each statement prepared and executed probeReps
// times after one warm-up execution. It returns the profile and the
// plan-cache hit ratio of the profiled Prepares.
func probeSQL(w *workload, e *env, dir string, tabs map[string][]table.Row) (*profile, float64, error) {
	svc, err := openService(w.config(e, dir), tabs)
	if err != nil {
		return nil, 0, err
	}
	defer shutdown(svc)
	want := make([]string, len(w.stmts))
	for i, s := range w.stmts {
		want[i] = digest(reference(s, tabs))
		if _, err := execStmt(svc, s, want[i], nil); err != nil {
			return nil, 0, err
		}
	}
	pr := newProfile()
	before := svc.CacheStats()
	for r := 0; r < probeReps; r++ {
		for i, s := range w.stmts {
			if _, err := execStmt(svc, s, want[i], pr); err != nil {
				return nil, 0, err
			}
		}
	}
	return pr, hitRatio(before, svc.CacheStats()), nil
}

// hitRatio is the plan-cache hit ratio between two CacheStats readings.
func hitRatio(before, after service.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// newProbeRand seeds the probes' inputs from the run's seed.
func newProbeRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(subSeed(seed, 7))) }
