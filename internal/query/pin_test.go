package query

import (
	"testing"

	"oblivjoin/internal/table"
)

// This file pins the canonical traces of whole SQL queries across
// commits, the SQL-layer counterpart of core.TestCanonicalTracePinned.
// The constants below were recorded once, with the stage-at-a-time
// and the streaming executor agreeing on every hash, event count and
// comparator count; every later executor, operator and store
// implementation must reproduce them exactly. The trace is a function
// of the query shape and the public sizes only, so a change that moves
// a trace hash, an event count, a comparator count or the tracked peak
// changes observable behaviour and is not a pure refactor. The sealed
// and block peaks count crypto.Overhead bytes per sealed record, so
// they move, by exactly that much per record, only when the seal
// format does.

type pinnedRun struct {
	hash        string // canonical trace hash
	events      uint64 // trace length
	comparators uint64
	peak        int64 // PlanStats.PeakBytes
}

// streamPins covers queryCorpus plus a GROUP BY over a filtered join
// chain (the §7 fast path fed by a filter and a rekeyed intermediate
// join), over corpusCatalog in the three store modes of storeModes.
var streamPins = []struct {
	sql                  string
	plain, sealed, block pinnedRun
}{
	{
		sql:    "SELECT * FROM a",
		plain:  pinnedRun{"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 420},
		sealed: pinnedRun{"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 420},
		block:  pinnedRun{"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0, 0, 420},
	},
	{
		sql:    "SELECT key, data FROM a WHERE key BETWEEN 2 AND 5",
		plain:  pinnedRun{"74e3102001fda2712c495e6fb4f2fe068ba818a87b804d084bc7141a2853365d", 95, 0, 504},
		sealed: pinnedRun{"74e3102001fda2712c495e6fb4f2fe068ba818a87b804d084bc7141a2853365d", 95, 0, 728},
		block:  pinnedRun{"74e3102001fda2712c495e6fb4f2fe068ba818a87b804d084bc7141a2853365d", 95, 0, 1184},
	},
	{
		sql:    "SELECT key FROM a WHERE NOT (key = 1 OR key >= 6) ORDER BY key",
		plain:  pinnedRun{"d0816ce9338bb24746bc00a94d2fd19a975b1969e02ceb2adf71bc901bf0ac86", 127, 6, 792},
		sealed: pinnedRun{"d0816ce9338bb24746bc00a94d2fd19a975b1969e02ceb2adf71bc901bf0ac86", 127, 6, 1144},
		block:  pinnedRun{"d0816ce9338bb24746bc00a94d2fd19a975b1969e02ceb2adf71bc901bf0ac86", 127, 6, 2368},
	},
	{
		sql:    "SELECT DISTINCT * FROM a",
		plain:  pinnedRun{"d4ec1a73466fcb128921497393de84877d73e3d921e593b4f687aa61bb6ea661", 170, 18, 504},
		sealed: pinnedRun{"d4ec1a73466fcb128921497393de84877d73e3d921e593b4f687aa61bb6ea661", 170, 18, 728},
		block:  pinnedRun{"d4ec1a73466fcb128921497393de84877d73e3d921e593b4f687aa61bb6ea661", 170, 18, 1184},
	},
	{
		sql:    "SELECT * FROM a ORDER BY key LIMIT 3",
		plain:  pinnedRun{"16845d76c2fa149922e6843d9f2d7c5f255aa4352d96ba809e1788c43a867060", 86, 18, 504},
		sealed: pinnedRun{"16845d76c2fa149922e6843d9f2d7c5f255aa4352d96ba809e1788c43a867060", 86, 18, 728},
		block:  pinnedRun{"16845d76c2fa149922e6843d9f2d7c5f255aa4352d96ba809e1788c43a867060", 86, 18, 1184},
	},
	{
		sql:    "SELECT data FROM a WHERE key IN (SELECT key FROM b) AND key < 7",
		plain:  pinnedRun{"4b457924f75f9bb137eebfead876565a4d52a97f17218dfd8014319873e9ce1f", 424, 46, 1152},
		sealed: pinnedRun{"4b457924f75f9bb137eebfead876565a4d52a97f17218dfd8014319873e9ce1f", 424, 46, 1664},
		block:  pinnedRun{"4b457924f75f9bb137eebfead876565a4d52a97f17218dfd8014319873e9ce1f", 424, 46, 2368},
	},
	{
		sql:    "SELECT key, COUNT(*), SUM(data), MIN(data), MAX(data) FROM nums GROUP BY key",
		plain:  pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 889},
		sealed: pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 1081},
		block:  pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 1641},
	},
	{
		sql:    "SELECT key, COUNT(*) FROM nums GROUP BY key LIMIT 2",
		plain:  pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 696},
		sealed: pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 888},
		block:  pinnedRun{"adf5f45d076f01a7c94c9bddddb4d645799d2a952eb50fec7f9224c5c5693ad3", 141, 13, 1448},
	},
	{
		sql:    "SELECT key, left.data, right.data FROM a JOIN b USING (key)",
		plain:  pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 1800},
		sealed: pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 2600},
		block:  pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 3552},
	},
	{
		sql:    "SELECT key, right.data FROM a JOIN b USING (key) WHERE key > 1 ORDER BY key",
		plain:  pinnedRun{"19771881f33a9089a696bde91b8b65205781a21e8aa27e9fc84ad9512cef8fbb", 801, 117, 1656},
		sealed: pinnedRun{"19771881f33a9089a696bde91b8b65205781a21e8aa27e9fc84ad9512cef8fbb", 801, 117, 2392},
		block:  pinnedRun{"19771881f33a9089a696bde91b8b65205781a21e8aa27e9fc84ad9512cef8fbb", 801, 117, 3552},
	},
	{
		sql:    "SELECT * FROM a JOIN b USING (key) LIMIT 4",
		plain:  pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 1800},
		sealed: pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 2600},
		block:  pinnedRun{"79574720543384792f210a14cbefe45c95da595eb10800454ce77ae13e39e4b0", 801, 136, 3552},
	},
	{
		sql:    "SELECT key, left.data, right.data FROM a JOIN b USING (key) JOIN c USING (key)",
		plain:  pinnedRun{"f186886170f5921029159b66463a46bd80c43dc100425e61812150e41159401a", 1449, 241, 1800},
		sealed: pinnedRun{"f186886170f5921029159b66463a46bd80c43dc100425e61812150e41159401a", 1449, 241, 2600},
		block:  pinnedRun{"f186886170f5921029159b66463a46bd80c43dc100425e61812150e41159401a", 1449, 241, 3552},
	},
	{
		sql:    "SELECT key, COUNT(*) FROM a JOIN b USING (key) GROUP BY key",
		plain:  pinnedRun{"6d602d2784809627c49819722c27084fe7bd37df626e8652eb9c812dc25944eb", 515, 92, 1134},
		sealed: pinnedRun{"6d602d2784809627c49819722c27084fe7bd37df626e8652eb9c812dc25944eb", 515, 92, 1518},
		block:  pinnedRun{"6d602d2784809627c49819722c27084fe7bd37df626e8652eb9c812dc25944eb", 515, 92, 1454},
	},
	{
		sql:    "SELECT key, COUNT(*) FROM a JOIN b USING (key) JOIN c USING (key) GROUP BY key",
		plain:  pinnedRun{"bf70f7eb0aa33e433d35762289ff5ce05e957b0b5755c9e08209753690d3f2fd", 1185, 202, 1800},
		sealed: pinnedRun{"bf70f7eb0aa33e433d35762289ff5ce05e957b0b5755c9e08209753690d3f2fd", 1185, 202, 2600},
		block:  pinnedRun{"bf70f7eb0aa33e433d35762289ff5ce05e957b0b5755c9e08209753690d3f2fd", 1185, 202, 3552},
	},
	{
		sql:    "SELECT key, SUM(left.data), SUM(right.data), COUNT(*) FROM nums JOIN nums2 USING (key) GROUP BY key",
		plain:  pinnedRun{"0d8e192df7f35477b00168f3c57776ded0eb422ded9fe3696e0555ea54ccc4f5", 559, 78, 1218},
		sealed: pinnedRun{"0d8e192df7f35477b00168f3c57776ded0eb422ded9fe3696e0555ea54ccc4f5", 559, 78, 1570},
		block:  pinnedRun{"0d8e192df7f35477b00168f3c57776ded0eb422ded9fe3696e0555ea54ccc4f5", 559, 78, 1610},
	},
	{
		sql:    "SELECT key, COUNT(*) FROM a JOIN b USING (key) JOIN c USING (key) WHERE key < 5 GROUP BY key",
		plain:  pinnedRun{"eb2d57cb8ce0caa42edf5490d0320e6d467f7495deec3dc656cbcbe9fa66e688", 936, 139, 1368},
		sealed: pinnedRun{"eb2d57cb8ce0caa42edf5490d0320e6d467f7495deec3dc656cbcbe9fa66e688", 936, 139, 1976},
		block:  pinnedRun{"eb2d57cb8ce0caa42edf5490d0320e6d467f7495deec3dc656cbcbe9fa66e688", 936, 139, 3552},
	},
}

// pinFor returns the pinned run of sql in the named store mode.
func pinFor(t *testing.T, mode, sql string) pinnedRun {
	t.Helper()
	for _, p := range streamPins {
		if p.sql != sql {
			continue
		}
		switch mode {
		case "plain":
			return p.plain
		case "sealed":
			return p.sealed
		case "block-sealed":
			return p.block
		}
	}
	t.Fatalf("no pinned run for %s/%q", mode, sql)
	return pinnedRun{}
}

// streamedRun executes sql over tables under o with the trace hash on
// and returns the result and its pinned figures.
func streamedRun(t *testing.T, o Options, sql string, tables map[string][]table.Row) (*Result, pinnedRun) {
	t.Helper()
	o.TraceHash = true
	e := NewEngineWith(o)
	for name, rows := range tables {
		if err := e.Register(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	ps := e.LastStats()
	return res, pinnedRun{hash: ps.TraceHash, events: ps.TraceEvents, comparators: ps.Comparators, peak: ps.PeakBytes}
}

func TestStreamTracePinned(t *testing.T) {
	if len(streamPins) != len(queryCorpus)+1 {
		t.Fatalf("%d pinned queries for a corpus of %d", len(streamPins), len(queryCorpus))
	}
	for _, mode := range storeModes {
		for _, p := range streamPins {
			for _, workers := range []int{1, 2} {
				o := Options{Workers: workers}
				mode.set(&o)
				_, got := streamedRun(t, o, p.sql, corpusCatalog("x"))
				if want := pinFor(t, mode.name, p.sql); got != want {
					t.Errorf("%s/workers=%d/%q: got %+v, pinned %+v", mode.name, workers, p.sql, got, want)
				}
			}
		}
	}
}
