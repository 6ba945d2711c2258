package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"oblivjoin"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
)

// counts is the exact account of one execution: the quantities that
// are a function of the query shape and the public sizes alone.
type counts struct {
	hash        string // access-pattern trace hash
	comparators uint64
	routeOps    uint64
	peakBytes   int64
	spills      int64
	spillBytes  int64
	joinRows    []int // output rows of each oblivious-join stage, in order
}

// sameTrace reports whether two executions are indistinguishable to an
// observer of public memory: equal trace hash, comparators, route ops
// and peak bytes.
func (c counts) sameTrace(o counts) bool {
	return c.hash == o.hash && c.comparators == o.comparators &&
		c.routeOps == o.routeOps && c.peakBytes == o.peakBytes
}

// exactRun is every statement of a workload and its bare join, run once
// each with trace hashing.
type exactRun struct {
	stmts []counts
	join  counts
}

// runExact executes w's statements and bare join once over tabs, with
// the workload's execution configuration and trace hashing on, and
// checks every result against the reference.
func runExact(w *workload, e *env, dir string, tabs map[string][]table.Row) (*exactRun, error) {
	svc, err := openService(w.config(e, dir), tabs)
	if err != nil {
		return nil, err
	}
	defer shutdown(svc)
	out := &exactRun{}
	ctx := context.Background()
	for _, s := range w.stmts {
		p, err := svc.Prepare(ctx, s.sql, service.WithTraceHash(true))
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", s.sql, err)
		}
		res, ps, err := p.Exec(ctx)
		if err != nil {
			return nil, fmt.Errorf("exec %q: %w", s.sql, err)
		}
		if err := checkRows(s, res.Rows, digest(reference(s, tabs))); err != nil {
			return nil, err
		}
		c := counts{
			hash: ps.TraceHash, comparators: ps.Comparators, routeOps: ps.RouteOps,
			peakBytes: ps.PeakBytes, spills: ps.SpillCount, spillBytes: ps.SpillBytes,
		}
		for _, op := range ps.Operators {
			if strings.HasPrefix(op.Op, "oblivious-join(") {
				c.joinRows = append(c.joinRows, op.Rows)
			}
		}
		out.stmts = append(out.stmts, c)
	}
	left, right := tabs[w.joinL], tabs[w.joinR]
	res, err := oblivjoin.Join(oblivjoin.FromRows(left), oblivjoin.FromRows(right), &oblivjoin.Options{
		Workers: e.nproc, Encrypted: w.sealedJoin, TraceHash: true, CollectStats: true,
	})
	if err != nil {
		return nil, fmt.Errorf("bare join: %w", err)
	}
	if g, want := digest(pairRows(res.Pairs)), joinDigest(left, right); g != want {
		return nil, fmt.Errorf("bare join: digest %s, reference digest %s", g, want)
	}
	out.join = counts{hash: res.TraceHash, comparators: res.Stats.SortComparisons, routeOps: res.Stats.RouteOps}
	return out, nil
}

// guard is the obliviousness check: it runs every statement and the
// bare join over the seed's inputs and over a second input set of equal
// public sizes and different contents, and fails unless the two runs
// agree on trace hash, comparators, route ops and peak bytes. It
// returns the first run.
func guard(w *workload, e *env, dir string) (*exactRun, error) {
	tabsA, tabsB := w.gen(e.seed), w.gen(subSeed(e.seed, guardTag))
	if maps.EqualFunc(tabsA, tabsB, slices.Equal[[]table.Row]) {
		return nil, fmt.Errorf("guard: the second input set equals the first")
	}
	a, err := runExact(w, e, dir, tabsA)
	if err != nil {
		return nil, fmt.Errorf("guard, first input set: %w", err)
	}
	b, err := runExact(w, e, dir, tabsB)
	if err != nil {
		return nil, fmt.Errorf("guard, second input set: %w", err)
	}
	for i, s := range w.stmts {
		if !a.stmts[i].sameTrace(b.stmts[i]) {
			return nil, fmt.Errorf("guard: %q is not oblivious: %+v vs %+v", s.sql, a.stmts[i], b.stmts[i])
		}
	}
	if !a.join.sameTrace(b.join) {
		return nil, fmt.Errorf("guard: bare join %s ⋈ %s is not oblivious: %+v vs %+v", w.joinL, w.joinR, a.join, b.join)
	}
	return a, nil
}

// execLayers derives the exact exec metrics from one run of every
// statement.
func (r *exactRun) execLayers(m metrics) {
	var cmp, route uint64
	var peak, spills, spillBytes int64
	for _, c := range r.stmts {
		cmp += c.comparators
		route += c.routeOps
		peak = max(peak, c.peakBytes)
		spills += c.spills
		spillBytes += c.spillBytes
	}
	m.add("exec.comparators", float64(cmp), "count")
	m.add("exec.route_ops", float64(route), "count")
	m.add("exec.peak_bytes", float64(peak), "bytes")
	m.add("exec.spill_count", float64(spills), "count")
	m.add("exec.spill_bytes", float64(spillBytes), "bytes")
}
