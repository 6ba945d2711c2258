package query

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// storeModes are the three storage backends the equality properties
// quantify over.
var storeModes = []struct {
	name string
	set  func(o *Options)
}{
	{"plain", func(o *Options) {}},
	{"sealed", func(o *Options) { o.Encrypted = true; o.SealedBlock = 1 }},
	{"block-sealed", func(o *Options) { o.Encrypted = true }},
}

// checkReference checks res against the materialized reference
// executor of ref_test.go: equal multisets, or under LIMIT N the
// first min(N, |reference|) rows drawn from the reference multiset.
func checkReference(t *testing.T, label, sql string, tables map[string][]table.Row, res *Result) {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refQuery(tables, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if q.Limit < 0 {
		if g, w := multiset(res.Rows), multiset(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: engine %v, reference %v", label, g, w)
		}
		return
	}
	if len(res.Rows) != min(q.Limit, len(want)) {
		t.Fatalf("%s: LIMIT %d returned %d of %d reference rows", label, q.Limit, len(res.Rows), len(want))
	}
	left := map[string]int{}
	for _, r := range multiset(want) {
		left[r]++
	}
	for _, r := range multiset(res.Rows) {
		if left[r] == 0 {
			t.Fatalf("%s: row %q not in the reference result", label, r)
		}
		left[r]--
	}
}

// renamePayloads returns tables with every payload prefixed by "z": the
// same sizes, keys and payload equalities, different contents.
func renamePayloads(tables map[string][]table.Row) map[string][]table.Row {
	out := make(map[string][]table.Row, len(tables))
	for name, rows := range tables {
		rr := make([]table.Row, len(rows))
		for i, r := range rows {
			rr[i] = table.Row{J: r.J, D: table.MustData("z" + table.DataString(r.D))}
		}
		out[name] = rr
	}
	return out
}

// checkBatchAndContentFree runs sql at two batch widths and over
// renamed payloads, checking every run against the reference executor
// and requiring one trace hash, event count, comparator count and peak
// across all of them: these are functions of the public sizes, never of
// the hand-off granularity or of table contents.
func checkBatchAndContentFree(t *testing.T, label string, o Options, sql string, tables map[string][]table.Row) {
	t.Helper()
	var first pinnedRun
	for i, tabs := range []map[string][]table.Row{tables, renamePayloads(tables)} {
		for j, b := range []int{16, 128} {
			o.StreamBatch = b
			lbl := fmt.Sprintf("%s/b=%d/renamed=%t", label, b, i == 1)
			res, got := streamedRun(t, o, sql, tabs)
			checkReference(t, lbl, sql, tabs, res)
			if got.peak <= 0 {
				t.Fatalf("%s: peak bytes not reported", lbl)
			}
			if i == 0 && j == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: trace %+v, want %+v", lbl, got, first)
			}
		}
	}
}

// TestStreamedMatchesMaterializedCorpus: every corpus query, under
// every store mode, returns the rows of the materialized reference
// executor (ref_test.go) and reproduces its pinned trace hash, event
// count, comparator count and peak (pin_test.go) — over the pinned
// catalog and over a catalog with the same public sizes but different
// payloads.
func TestStreamedMatchesMaterializedCorpus(t *testing.T) {
	for _, mode := range storeModes {
		for _, sql := range queryCorpus {
			want := pinFor(t, mode.name, sql)
			for _, payload := range []string{"x", "y"} {
				var o Options
				mode.set(&o)
				tables := corpusCatalog(payload)
				res, got := streamedRun(t, o, sql, tables)
				label := fmt.Sprintf("%s/%s/%q", mode.name, payload, sql)
				checkReference(t, label, sql, tables, res)
				if got != want {
					t.Fatalf("%s: got %+v, pinned %+v", label, got, want)
				}
			}
		}
	}
}

// TestStreamedMatchesMaterializedSizes sweeps the boundary input sizes
// around both batch widths — 1, B−1, B, B+1 and a many-batch 4096 —
// for every store mode, over a scan→filter→distinct→sort→limit chain
// (every streamable stage), against the materialized reference
// executor.
func TestStreamedMatchesMaterializedSizes(t *testing.T) {
	const sql = "SELECT DISTINCT key, data FROM t WHERE key > 5 ORDER BY key LIMIT 1000"
	sizes := []int{1, 15, 16, 17, 127, 128, 129, 4096}
	if testing.Short() {
		sizes = []int{1, 15, 16, 17, 129, 4096}
	}
	for _, mode := range storeModes {
		for _, n := range sizes {
			rows := make([]table.Row, n)
			for i := range rows {
				rows[i] = table.Row{J: uint64(i % 97), D: table.MustData(fmt.Sprintf("d%d", i%13))}
			}
			var o Options
			mode.set(&o)
			checkBatchAndContentFree(t, fmt.Sprintf("%s/n=%d", mode.name, n), o, sql, map[string][]table.Row{"t": rows})
		}
	}
}

// TestStreamedJoinMatchesMaterialized covers the feed-based join path
// (filter upstream of a join, rekey downstream) at batch-boundary
// sizes, against the materialized reference executor.
func TestStreamedJoinMatchesMaterialized(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM l JOIN r USING (key) WHERE key < 60 ORDER BY key"
	for _, mode := range storeModes {
		for _, n := range []int{1, 15, 16, 17, 200} {
			l := make([]table.Row, n)
			r := make([]table.Row, (n+1)/2)
			for i := range l {
				l[i] = table.Row{J: uint64(i % 71), D: table.MustData(fmt.Sprintf("l%d", i))}
			}
			for i := range r {
				r[i] = table.Row{J: uint64(i % 71), D: table.MustData(fmt.Sprintf("r%d", i))}
			}
			var o Options
			mode.set(&o)
			checkBatchAndContentFree(t, fmt.Sprintf("join/%s/n=%d", mode.name, n), o, sql, map[string][]table.Row{"l": l, "r": r})
		}
	}
}

// collectSink accumulates a streamed result for comparison.
type collectSink struct {
	cols []string
	rows [][]string
}

func (c *collectSink) Columns(cols []string) error {
	c.cols = append([]string(nil), cols...)
	return nil
}

func (c *collectSink) Rows(rows [][]string) error {
	for _, r := range rows {
		c.rows = append(c.rows, append([]string(nil), r...))
	}
	return nil
}

// TestRunStreamSinkDelivery: sink-mode execution delivers the same
// columns and rows Run returns, with the same trace, and reports a
// peak no larger than the result-materializing run's.
func TestRunStreamSinkDelivery(t *testing.T) {
	rows := make([]table.Row, 1000)
	for i := range rows {
		rows[i] = table.Row{J: uint64(i % 31), D: table.MustData(fmt.Sprintf("v%d", i))}
	}
	tables := map[string][]table.Row{"t": rows, "u": seqTable(0, 31, "u")}
	queries := []struct {
		sql string
		// strictPeak marks queries whose peak is the materialized
		// result itself, so sink delivery must strictly lower it.
		strictPeak bool
	}{
		{"SELECT key, data FROM t", true},
		{"SELECT key, data FROM t WHERE key >= 4 ORDER BY key", false},
		{"SELECT key, left.data, right.data FROM t JOIN u USING (key)", false},
		{"SELECT key, COUNT(*) FROM t GROUP BY key", false},
	}
	for _, qc := range queries {
		pipeline := lowerSQL(t, qc.sql, tables)
		opts := Options{TraceHash: true}
		res, ps, err := Run(context.Background(), opts, nil, tables, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		sink := &collectSink{}
		sps, err := RunStream(context.Background(), opts, nil, tables, pipeline, sink)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sink.cols, res.Columns) || !reflect.DeepEqual(sink.rows, res.Rows) {
			t.Fatalf("%q: sink delivery diverges from the returned result", qc.sql)
		}
		if sps.TraceHash != ps.TraceHash {
			t.Fatalf("%q: sink trace hash %s != run trace hash %s", qc.sql, sps.TraceHash, ps.TraceHash)
		}
		if sps.PeakBytes > ps.PeakBytes {
			t.Fatalf("%q: sink peak %d above result-materializing peak %d", qc.sql, sps.PeakBytes, ps.PeakBytes)
		}
		if qc.strictPeak && sps.PeakBytes >= ps.PeakBytes {
			t.Fatalf("%q: sink peak %d not below result-materializing peak %d", qc.sql, sps.PeakBytes, ps.PeakBytes)
		}
	}
}

// lowerSQL parses, plans and lowers sql against tables.
func lowerSQL(t *testing.T, sql string, tables map[string][]table.Row) []exec.Operator {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{})
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline
}

// TestSpillUnderMemBudget: a join whose intermediates exceed a 1 MiB
// budget diverts stores to sealed spill files, produces the same rows
// and the same canonical trace as an unbudgeted run, and removes every
// spill file by the end of the run.
func TestSpillUnderMemBudget(t *testing.T) {
	// n is sized so the join's combined table alone (2n entries) plus
	// one m-entry intermediate crosses the 1 MiB budget in every store
	// mode; smaller joins stay in memory thanks to eager releases.
	const n = 4096
	l := make([]table.Row, n)
	r := make([]table.Row, n)
	for i := range l {
		l[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("L%d", i))}
		r[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("R%d", i))}
	}
	tables := map[string][]table.Row{"l": l, "r": r}
	const sql = "SELECT key, left.data, right.data FROM l JOIN r USING (key) ORDER BY key"

	dir := t.TempDir()
	for _, mode := range storeModes {
		if testing.Short() && mode.name != "plain" {
			continue
		}
		var base Options
		mode.set(&base)
		base.TraceHash = true

		run := func(o Options) (*Result, *PlanStats) {
			e := NewEngineWith(o)
			for name, rows := range tables {
				if err := e.Register(name, rows); err != nil {
					t.Fatal(err)
				}
			}
			res, err := e.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			return res, e.LastStats()
		}

		wantRes, wantPS := run(base)

		budgeted := base
		budgeted.MemBudget = 1 << 20
		budgeted.SpillDir = dir
		res, ps := run(budgeted)

		if ps.SpillCount == 0 || ps.SpillBytes == 0 {
			t.Fatalf("%s: budget run did not spill (count=%d bytes=%d)", mode.name, ps.SpillCount, ps.SpillBytes)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s: spilled result diverges", mode.name)
		}
		if ps.TraceHash != wantPS.TraceHash {
			t.Fatalf("%s: spilled trace hash %s != unbudgeted %s", mode.name, ps.TraceHash, wantPS.TraceHash)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("%s: %d spill files survive the run", mode.name, len(ents))
		}
	}
}

// TestStreamBatchWidthAlignment: the resolved batch width is always a
// positive multiple of the sealed block width.
func TestStreamBatchWidthAlignment(t *testing.T) {
	cases := []struct {
		o    Options
		unit int
	}{
		{Options{}, table.DefaultSealedBlock},
		{Options{StreamBatch: 7}, table.DefaultSealedBlock},
		{Options{Encrypted: true, SealedBlock: 24, StreamBatch: 25}, 24},
		{Options{Encrypted: true, SealedBlock: 1, StreamBatch: 3}, 1},
	}
	for _, c := range cases {
		b := batchWidth(c.o)
		if b <= 0 || b%c.unit != 0 {
			t.Fatalf("batchWidth(%+v) = %d, not a positive multiple of %d", c.o, b, c.unit)
		}
		if c.o.StreamBatch > 0 && b < c.o.StreamBatch {
			t.Fatalf("batchWidth(%+v) = %d rounded down", c.o, b)
		}
	}
}

// TestStreamedCancellation: a pre-cancelled context aborts a streaming
// run with the typed sentinel, leaving no spill files behind.
func TestStreamedCancellation(t *testing.T) {
	rows := make([]table.Row, 4096)
	for i := range rows {
		rows[i] = table.Row{J: uint64(i), D: table.MustData("x")}
	}
	q, err := Parse("SELECT DISTINCT key, data FROM t ORDER BY key")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{})
	if err := e.Register("t", rows); err != nil {
		t.Fatal(err)
	}
	plan, err := e.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	o := Options{MemBudget: 1, SpillDir: dir}
	if _, _, err := Run(ctx, o, nil, map[string][]table.Row{"t": rows}, pipeline); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files survive a cancelled run", len(ents))
	}
}

// TestStreamerInterfaces pins which operators advertise the streaming
// contract, and that the row-level stages have no form over a whole
// materialized relation.
func TestStreamerInterfaces(t *testing.T) {
	for _, op := range []exec.Operator{exec.Filter{}, exec.Distinct{}, exec.Sort{}, exec.Semijoin{}, exec.Limit{}} {
		if _, ok := op.(exec.Streamer); !ok {
			t.Fatalf("%T does not implement Streamer", op)
		}
	}
	for _, op := range []exec.Operator{exec.Filter{}, exec.Distinct{}, exec.Semijoin{}, exec.Join{}, exec.Rekey{}} {
		if _, ok := op.(exec.Runner); ok {
			t.Fatalf("%T implements Runner", op)
		}
	}
}

// TestStreamDriverRejectsMisplacedStages: a stage fed a relation shape
// it has no form for — a pipeline the planner never lowers — fails
// with ErrInternal instead of running.
func TestStreamDriverRejectsMisplacedStages(t *testing.T) {
	tables := map[string][]table.Row{"t": seqTable(0, 4, "v")}
	project := exec.Project{Items: []exec.ProjItem{{Col: exec.ColKey}}}
	for i, pipeline := range [][]exec.Operator{
		{exec.Scan{Table: "t"}, exec.Rekey{}, project},
		{exec.Scan{Table: "t"}, exec.GroupBy{}, exec.Join{Table: "t"}, project},
		{exec.Scan{Table: "t"}, exec.GroupBy{}, exec.Filter{}, project},
	} {
		if _, _, err := Run(context.Background(), Options{}, nil, tables, pipeline); !errors.Is(err, ErrInternal) {
			t.Fatalf("pipeline %d: err = %v, want ErrInternal", i, err)
		}
	}
}
