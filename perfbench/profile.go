package main

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"oblivjoin"
	"oblivjoin/internal/query"
)

// The profile is what the profiled run records. It has two sources:
// spans the benchmark times around its own calls into each layer, and
// the accounts the program already exports (oblivjoin.Stats.Phases,
// query.PlanStats.Operators). It adds no instrumentation to the
// program. It is called a profile, not a trace: in this repository a
// trace is the public-memory access trace.

// Span names.
const (
	spanJoin    = "core.join"       // oblivjoin.Join
	spanRead    = "read"            // Prepare + Exec
	spanPrepare = "service.prepare" // Service.Prepare
	spanExec    = "service.exec"    // Stmt.Exec
	spanWrite   = "service.replace" // Service.Replace
)

// Core phase names as oblivjoin.Stats.Phases reports them, in
// algorithm order.
var corePhases = []string{"augment", "distribute-sort", "distribute-route", "expand-scan", "align", "zip"}

// Exec stage kinds PlanStats operators are summed by.
var stageKinds = []string{"join", "groupby", "sort", "filter", "minor"}

// stageKind classifies a PlanStats operator label.
func stageKind(op string) string {
	switch {
	case strings.HasPrefix(op, "oblivious-join"), strings.HasPrefix(op, "semijoin"):
		return "join"
	case strings.HasPrefix(op, "join-group"), strings.HasPrefix(op, "group-by"), strings.HasPrefix(op, "distinct"):
		return "groupby"
	case strings.HasPrefix(op, "sort"):
		return "sort"
	case strings.HasPrefix(op, "filter"):
		return "filter"
	default: // scan, rekey, restore, limit, project
		return "minor"
	}
}

// profile collects spans and exported accounts; all methods are safe
// for concurrent use and do nothing on a nil profile. A span is one
// timed call the benchmark made into a layer, kept by name.
type profile struct {
	mu     sync.Mutex
	spans  map[string][]time.Duration
	waits  []time.Duration          // Exec wall − PlanStats.Total, per read
	stages map[string]time.Duration // Σ operator wall by stage kind
	plan   time.Duration            // Σ PlanStats.Total
	phases map[string]time.Duration // Σ core phase wall
	cmp    uint64                   // last bare join's comparators
	route  uint64                   // last bare join's route ops
}

func newProfile() *profile {
	return &profile{
		spans:  map[string][]time.Duration{},
		stages: map[string]time.Duration{},
		phases: map[string]time.Duration{},
	}
}

func (p *profile) span(name string, d time.Duration) { p.spans[name] = append(p.spans[name], d) }

// joinOp records one bare join and its phase account.
func (p *profile) joinOp(d time.Duration, st *oblivjoin.Stats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.span(spanJoin, d)
	for name, v := range st.Phases {
		p.phases[name] += v
	}
	p.cmp, p.route = st.SortComparisons, st.RouteOps
}

// sqlOp records one read: Prepare took prep, Prepare + Exec took total.
func (p *profile) sqlOp(prep, total time.Duration, ps *query.PlanStats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	exec := total - prep
	p.span(spanRead, total)
	p.span(spanPrepare, prep)
	p.span(spanExec, exec)
	p.waits = append(p.waits, exec-ps.Total)
	p.plan += ps.Total
	for _, op := range ps.Operators {
		p.stages[stageKind(op.Op)] += op.Wall
	}
}

// writeOp records one acknowledged write.
func (p *profile) writeOp(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.span(spanWrite, d)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// meanMS is a total spread over n ops, in milliseconds.
func meanMS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

func (p *profile) reads() int { return len(p.spans[spanRead]) }
func (p *profile) joins() int { return len(p.spans[spanJoin]) }

// sqlLayers derives the service and exec metrics from the reads.
func (p *profile) sqlLayers(m metrics) {
	n := p.reads()
	m.add("service.prepare_us", us(quantile(p.spans[spanPrepare], 0.5)), "us")
	m.add("service.admission_wait_ms", ms(quantile(p.waits, 0.9)), "ms")
	for _, k := range stageKinds {
		m.add("exec."+k+"_ms", meanMS(p.stages[k], n), "ms")
	}
}

// coreLayers derives the per-phase metrics from the bare joins.
func (p *profile) coreLayers(m metrics) {
	n := p.joins()
	var phased time.Duration
	for _, ph := range corePhases {
		m.add("core."+strings.ReplaceAll(ph, "-", "_")+"_ms", meanMS(p.phases[ph], n), "ms")
		phased += p.phases[ph]
	}
	m.add("core.other_ms", meanMS(sum(p.spans[spanJoin])-phased, n), "ms")
	m.add("core.comparators", float64(p.cmp), "count")
	m.add("core.route_ops", float64(p.route), "count")
}

// writeAccount prints where an op's wall time went, level by level,
// each level closing with an "other" row: mean milliseconds per op.
func (p *profile) writeAccount(w io.Writer, label string) {
	row := func(depth int, name string, v float64, note string) {
		fmt.Fprintf(w, "  %-*s%-*s %10.3f ms  %s\n", 2*depth, "", 34-2*depth, name, v, note)
	}
	if n := p.reads(); n > 0 {
		fmt.Fprintf(w, "profile account (%s): mean per read over %d reads\n", label, n)
		exec := sum(p.spans[spanExec])
		row(0, "read", meanMS(sum(p.spans[spanRead]), n), "Prepare + Exec, nothing else")
		row(1, "service.prepare", meanMS(sum(p.spans[spanPrepare]), n), "")
		row(1, "service.exec", meanMS(exec, n), "")
		row(2, "admission wait + service", meanMS(exec-p.plan, n), "other: Exec wall − PlanStats.Total")
		row(2, "plan total", meanMS(p.plan, n), "PlanStats.Total")
		var staged time.Duration
		for _, k := range stageKinds {
			row(3, "exec."+k, meanMS(p.stages[k], n), "")
			staged += p.stages[k]
		}
		// PlanStats.Total is the sum of the operator walls, so this row
		// reads 0 and has no per-layer metric.
		row(3, "exec.other", meanMS(p.plan-staged, n), "other: PlanStats.Total − Σ operators")
	}
	if n := p.joins(); n > 0 {
		fmt.Fprintf(w, "profile account (%s): mean per join over %d joins\n", label, n)
		join := sum(p.spans[spanJoin])
		row(0, "core.join", meanMS(join, n), "oblivjoin.Join wall")
		var phased time.Duration
		for _, ph := range corePhases {
			row(1, "core."+ph, meanMS(p.phases[ph], n), "")
			phased += p.phases[ph]
		}
		row(1, "core.other", meanMS(join-phased, n), "other: Join wall − Σ phases")
	}
	if n := len(p.spans[spanWrite]); n > 0 {
		fmt.Fprintf(w, "profile account (%s): %d writes, mean %.3f ms per Replace\n", label, n, meanMS(sum(p.spans[spanWrite]), n))
	}
}
