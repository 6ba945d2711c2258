package exec

import (
	"strings"
	"testing"

	"oblivjoin/internal/aggregate"
	"oblivjoin/internal/core"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/table"
)

func testCtx(tables map[string][]table.Row) *Context {
	sp := memory.NewSpace(nil, nil)
	return &Context{
		Cfg:    &core.Config{Alloc: table.PlainAlloc(sp)},
		Tables: tables,
	}
}

func rowsOf(keys ...uint64) []table.Row {
	out := make([]table.Row, len(keys))
	for i, k := range keys {
		out[i] = table.Row{J: k, D: table.MustData("d")}
	}
	return out
}

func TestScanUnknownTable(t *testing.T) {
	ctx := testCtx(map[string][]table.Row{})
	if _, err := (Scan{Table: "ghost"}).Run(ctx, Relation{}); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

func TestLimitTruncatesEveryKind(t *testing.T) {
	rels := []Relation{
		{Kind: KindRows, Rows: rowsOf(1, 2, 3)},
		{Kind: KindPairs, Pairs: make([]table.KeyedPair, 3)},
		{Kind: KindGroups, Groups: make([]aggregate.Group, 3)},
		{Kind: KindJoinStats, JoinStats: make([]aggregate.JoinStat, 3)},
		{Kind: KindJoinSums, JoinSums: make([]aggregate.JoinSum, 3)},
	}
	for _, rel := range rels {
		out, err := (Limit{N: 2}).Run(nil, rel)
		if err != nil {
			t.Fatal(err)
		}
		if out.Size() != 2 {
			t.Fatalf("kind %d: size = %d, want 2", rel.Kind, out.Size())
		}
		// Limit beyond the size is a no-op.
		same, err := (Limit{N: 9}).Run(nil, rel)
		if err != nil || same.Size() != 3 {
			t.Fatalf("kind %d: over-limit size = %d (%v)", rel.Kind, same.Size(), err)
		}
	}
}

func TestRekeyConcatenatesAndOverflows(t *testing.T) {
	ctx := testCtx(nil)
	closed := false
	src := (Rekey{}).RunPairs(ctx, []table.KeyedPair{
		{J: 7, D1: table.MustData("ab"), D2: table.MustData("cd")},
	}, func() { closed = true })
	out, err := Materialize(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || table.DataString(out[0].D) != "ab+cd" || out[0].J != 7 {
		t.Fatalf("rekeyed = %+v", out)
	}
	if !closed {
		t.Fatal("drained rekey source did not run onClose")
	}

	long := strings.Repeat("x", table.DataLen)
	src = (Rekey{}).RunPairs(ctx, []table.KeyedPair{
		{J: 1, D1: table.MustData(long), D2: table.MustData("y")},
	}, nil)
	if _, err := Materialize(ctx, src); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want overflow error", err)
	}
}

func TestCheckNumericPayloadsListsValues(t *testing.T) {
	mk := func(vals ...string) []table.Row {
		out := make([]table.Row, len(vals))
		for i, v := range vals {
			out[i] = table.Row{J: uint64(i), D: table.MustData(v)}
		}
		return out
	}
	if err := checkNumericPayloads(mk("1", "22", "333")); err != nil {
		t.Fatalf("numeric payloads rejected: %v", err)
	}
	err := checkNumericPayloads(mk("1", "bad", "bad"), mk("worse", "3"))
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, `"worse"`) {
		t.Fatalf("error %q does not list both distinct values", msg)
	}
	if strings.Count(msg, `"bad"`) != 1 {
		t.Fatalf("error %q repeats duplicate values", msg)
	}
	// More than five distinct offenders: the list is capped and counted.
	err = checkNumericPayloads(mk("a", "b", "c", "d", "e", "f", "g"))
	if err == nil || !strings.Contains(err.Error(), "7 distinct values") {
		t.Fatalf("err = %v, want truncation note", err)
	}
}

func TestProjectErrorsOnUnavailableColumns(t *testing.T) {
	// data over a join is ambiguous.
	in := Relation{Kind: KindPairs, Pairs: make([]table.KeyedPair, 1)}
	_, err := (Project{Items: []ProjItem{{Col: ColData}}}).Run(nil, in)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
	// left.data without a join.
	in = Relation{Kind: KindRows, Rows: rowsOf(1)}
	_, err = (Project{Items: []ProjItem{{Col: ColLeftData}}}).Run(nil, in)
	if err == nil || !strings.Contains(err.Error(), "without JOIN") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineComposition(t *testing.T) {
	ctx := testCtx(map[string][]table.Row{
		"l": rowsOf(1, 2, 2),
		"r": rowsOf(2, 2, 3),
	})
	rel, err := (Scan{Table: "l"}).Run(ctx, Relation{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err = (Join{Table: "r"}).RunFeed(ctx, NewSliceSource(ctx, rel.Rows, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Runner{
		Sort{Free: true},
		Limit{N: 3},
		Project{Items: []ProjItem{{Col: ColKey}, {Col: ColLeftData}, {Col: ColRightData}}},
	} {
		rel, err = op.Run(ctx, rel)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
	}
	if rel.Kind != KindResult || len(rel.Result.Rows) != 3 {
		t.Fatalf("result = %+v", rel.Result)
	}
	if got := strings.Join(rel.Result.Columns, ","); got != "key,left.data,right.data" {
		t.Fatalf("columns = %s", got)
	}
}
