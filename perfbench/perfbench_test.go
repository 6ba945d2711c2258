package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"oblivjoin/internal/query"
	"oblivjoin/internal/table"
)

func testEnv(t *testing.T, seed int64) *env {
	return &env{seed: seed, nproc: runtime.NumCPU(), dir: t.TempDir()}
}

// The exact metrics are data-independent by design: two seeds give
// identical counts and trace hashes for every statement and bare join.
func TestExactCountsSeedIndependent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runs := make([]*exactRun, 2)
			for i, seed := range []int64{1, 2} {
				e := testEnv(t, seed)
				r, err := runExact(w, e, e.dir, w.gen(seed))
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r
			}
			for i, s := range w.stmts {
				a, b := runs[0].stmts[i], runs[1].stmts[i]
				if !a.sameTrace(b) || a.spills != b.spills || a.spillBytes != b.spillBytes {
					t.Errorf("%q: seed 1 %+v, seed 2 %+v", s.sql, a, b)
				}
			}
			if !runs[0].join.sameTrace(runs[1].join) {
				t.Errorf("bare join: seed 1 %+v, seed 2 %+v", runs[0].join, runs[1].join)
			}
			m1, m2 := metrics{}, metrics{}
			runs[0].execLayers(m1)
			runs[1].execLayers(m2)
			if !maps.Equal(m1, m2) {
				t.Errorf("exec metrics differ across seeds: %v vs %v", m1, m2)
			}
		})
	}
}

// feedCard is the planner's cardinality source with each join's
// observed output size fed back, the channel the service's adaptive
// replanning uses. Output sizes are public by design.
type feedCard struct {
	query.StaticCard
	joins map[string]int // by the joined (right) table; chains join distinct tables
}

func (c feedCard) JoinRows(_ []string, right string) (int, bool) {
	m, ok := c.joins[right]
	return m, ok
}

// exec.comparators equals query.ComputePlanCost's modeled count for
// every statement once the observed join sizes are fed to the model.
// A WHERE filter has no such feed: the model sizes the stages after it
// at the pre-filter cardinality (the report marks them Estimated), so
// for those statements the model is an upper bound.
func TestComparatorsMatchModel(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := testEnv(t, 1)
			tabs := w.gen(1)
			r, err := runExact(w, e, e.dir, tabs)
			if err != nil {
				t.Fatal(err)
			}
			card := feedCard{StaticCard: query.StaticCard{}, joins: map[string]int{}}
			for n, rows := range tabs {
				card.StaticCard[n] = len(rows)
			}
			opts := w.config(e, e.dir).Defaults
			for i, s := range w.stmts {
				obs := r.stmts[i]
				q, err := query.Parse(s.sql)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := query.BuildPlan(q, func(n string) bool { _, ok := tabs[n]; return ok })
				if err != nil {
					t.Fatal(err)
				}
				_, joins := query.JoinChain(plan)
				if len(joins) != len(obs.joinRows) {
					t.Fatalf("%q: %d joins planned, %d executed", s.sql, len(joins), len(obs.joinRows))
				}
				clear(card.joins)
				for j, right := range joins {
					card.joins[right] = obs.joinRows[j]
				}
				model := query.ComputePlanCost(plan, card, opts)
				filtered := s.shape == shapeTopN || s.shape == shapeRange
				switch {
				case !filtered && (model.Comparators != obs.comparators || model.RouteOps != obs.routeOps):
					t.Errorf("%q: executed %d comparators and %d route ops, modeled %d and %d",
						s.sql, obs.comparators, obs.routeOps, model.Comparators, model.RouteOps)
				case filtered && model.Comparators < obs.comparators:
					t.Errorf("%q: executed %d comparators, above the modeled bound %d", s.sql, obs.comparators, model.Comparators)
				case filtered:
					t.Logf("%q: executed %d comparators, modeled %d at the pre-filter size", s.sql, obs.comparators, model.Comparators)
				}
			}
		})
	}
}

// The reference itself: a hand-checked case per shape.
func TestReference(t *testing.T) {
	rows := func(kv ...any) []table.Row {
		var out []table.Row
		for i := 0; i < len(kv); i += 2 {
			out = append(out, table.Row{J: uint64(kv[i].(int)), D: table.MustData(kv[i+1].(string))})
		}
		return out
	}
	tabs := map[string][]table.Row{
		"a": rows(1, "x", 2, "y", 2, "z"),
		"b": rows(2, "p", 3, "q", 1, "r"),
		"c": rows(2, "s"),
	}
	cases := []struct {
		s    stmt
		want [][]string
	}{
		{newStmt(shapeJoin, 0, 0, "a", "b"), [][]string{{"1", "x", "r"}, {"2", "y", "p"}, {"2", "z", "p"}}},
		{newStmt(shapeChain, 0, 0, "a", "b", "c"), [][]string{{"2", "y+p", "s"}, {"2", "z+p", "s"}}},
		{newStmt(shapeJoinGroup, 0, 0, "a", "b"), [][]string{{"1", "1"}, {"2", "2"}}},
		{newStmt(shapeGroup, 0, 0, "a"), [][]string{{"1", "1"}, {"2", "2"}}},
		{newStmt(shapeSort, 0, 0, "b"), [][]string{{"1", "r"}, {"2", "p"}, {"3", "q"}}},
		{newStmt(shapeTopN, 3, 1, "b"), [][]string{{"1", "r"}}},
		{newStmt(shapeRange, 2, 0, "a"), [][]string{{"1", "x"}}},
	}
	for _, c := range cases {
		got := reference(c.s, tabs)
		if digest(got) != digest(c.want) {
			t.Errorf("%q: got %v, want %v", c.s.sql, got, c.want)
		}
		if err := checkRows(c.s, c.want, digest(got)); err != nil {
			t.Error(err)
		}
	}
	if err := checkRows(newStmt(shapeSort, 0, 0, "b"), [][]string{{"2", "p"}, {"1", "r"}, {"3", "q"}},
		digest(reference(newStmt(shapeSort, 0, 0, "b"), tabs))); err == nil {
		t.Error("checkRows accepted rows out of key order")
	}
}

// Every workload runs end to end in both modes, passes its checks and
// prints exactly the metrics BENCHMARK.json declares for the mode.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for mode, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(mode)}
			if code := run(args, &out); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%t attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%v: %d metrics, %d declared", args, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%v: metric %s: got %+v, declared unit %s", args, d.Name, m, d.Unit)
				}
			}
		}
	}
}
