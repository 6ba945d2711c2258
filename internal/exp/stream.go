package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"oblivjoin/internal/crypto"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/query"
	"oblivjoin/internal/query/exec"
	"oblivjoin/internal/table"
)

// StreamBenchResult is one row of the streaming-executor benchmark:
// the same scan→join→rekey→filter→project chain executed two ways —
// streamed into a materialized Result, and streamed into a RowSink
// (the result itself never materializes) — at one input size over one
// store backend.
//
// The memory columns are the deterministic allocation-gauge readings
// (table.Gauge), a pure function of the plan and the public sizes, so
// benchdiff gates them at the same threshold as the wall times. The
// trace columns are the equivalence evidence: both executions must
// record bit-identical canonical traces.
type StreamBenchResult struct {
	N       int    `json:"n"`
	M       int    `json:"m"`
	Rows    int    `json:"rows"`
	Workers int    `json:"workers"`
	Mode    string `json:"mode"`
	Block   int    `json:"block,omitempty"`

	StreamedNS int64 `json:"streamed_ns"`
	SinkNS     int64 `json:"streamed_sink_ns"`

	StreamedPeakBytes  int64 `json:"streamed_peak_bytes"`
	SinkPeakBytes      int64 `json:"streamed_sink_peak_bytes"`
	StreamedTotalBytes int64 `json:"streamed_total_alloc_bytes"`

	TraceEvents    uint64 `json:"trace_events"`
	TraceDetEvents bool   `json:"trace_event_counts_equal"`
	TraceDetHash   bool   `json:"trace_hashes_equal"`
	TraceSkipped   string `json:"trace_hash_skipped,omitempty"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
}

// countSink consumes a streamed result without retaining it: the
// realistic sink-mode client (a wire encoder), reduced to a row count
// and a cheap checksum over the cell bytes.
type countSink struct {
	rows int
	sum  uint64
}

func (s *countSink) Columns([]string) error { return nil }

func (s *countSink) Rows(rows [][]string) error {
	s.rows += len(rows)
	for _, r := range rows {
		for _, c := range r {
			for i := 0; i < len(c); i++ {
				s.sum = s.sum*131 + uint64(c[i])
			}
		}
	}
	return nil
}

// streamChain is the measured pipeline: a one-to-one join whose keyed
// output is rekeyed, filtered at ~15/16 selectivity (key%16 != 0,
// branch-free) and projected — the filter/project/rekey chain the
// streaming executor fuses between the join barrier and the output.
func streamChain() []exec.Operator {
	return []exec.Operator{
		exec.Scan{Table: "t1"},
		exec.Join{Table: "t2"},
		exec.Rekey{},
		exec.Filter{Pred: func(r table.Row) uint64 { return obliv.Not(obliv.Eq(r.J%16, 0)) }},
		exec.Project{Items: []exec.ProjItem{{Col: exec.ColKey}, {Col: exec.ColData}}},
	}
}

// streamTables builds the one-to-one matched catalog for streamChain:
// every key 0..n-1 appears once per side with a short tagged payload,
// so the join output is exactly n pairs and the rekeyed payloads stay
// inside the fixed width.
func streamTables(n int) map[string][]table.Row {
	t1 := make([]table.Row, n)
	t2 := make([]table.Row, n)
	for i := 0; i < n; i++ {
		t1[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("a%d", i%1000))}
		t2[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("b%d", i%1000))}
	}
	return map[string][]table.Row{"t1": t1, "t2": t2}
}

// streamMode is one store backend of the stream experiment.
type streamMode struct {
	name      string
	encrypted bool
	block     int
}

// BenchStream measures the peak tracked memory and wall time of the
// streaming executor on the streamChain pipeline, with and without a
// result sink, per input size, over plain and block-sealed storage,
// cross-checking rows and canonical traces between the two (hashes up
// to hashCheckCap, event counts always).
// workers ≤ 0 means GOMAXPROCS; block ≤ 0 selects the default width.
func BenchStream(w io.Writer, ns []int, workers, block int) ([]StreamBenchResult, error) {
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
	modes := []streamMode{
		{name: "plain"},
		{name: "block-sealed", encrypted: true, block: block},
	}
	fmt.Fprintf(w, "Streaming benchmark — block-granular streaming, scan→join→rekey→filter→project (workers=%d, tracing on)\n", workers)
	fmt.Fprintf(w, "%8s %-12s %12s %12s %14s %14s %s\n",
		"n", "mode", "streamed", "sink", "stream peak", "sink peak", "trace")

	var out []StreamBenchResult
	for _, n := range ns {
		tables := streamTables(n)
		for _, mode := range modes {
			hash := n <= hashCheckCap
			opts := query.Options{
				Workers:      workers,
				CollectStats: true,
				TraceHash:    hash,
				Encrypted:    mode.encrypted,
				SealedBlock:  mode.block,
			}
			var c *crypto.Cipher
			if mode.encrypted {
				c = cipher
			}
			pipeline := streamChain()

			t0 := time.Now()
			strRes, strPS, err := query.Run(nil, opts, c, tables, pipeline)
			strT := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("exp: stream n=%d %s streamed: %w", n, mode.name, err)
			}

			sink := &countSink{}
			t0 = time.Now()
			sinkPS, err := query.RunStream(nil, opts, c, tables, pipeline, sink)
			sinkT := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("exp: stream n=%d %s sink: %w", n, mode.name, err)
			}

			if sink.rows != len(strRes.Rows) {
				return nil, fmt.Errorf("exp: stream n=%d %s: executions disagree on the result", n, mode.name)
			}
			r := StreamBenchResult{
				N: n, M: n, Rows: len(strRes.Rows), Workers: workers,
				Mode: mode.name, Block: mode.block,
				StreamedNS: strT.Nanoseconds(), SinkNS: sinkT.Nanoseconds(),
				StreamedPeakBytes: strPS.PeakBytes, SinkPeakBytes: sinkPS.PeakBytes,
				StreamedTotalBytes: strPS.TotalAllocBytes, TraceEvents: strPS.TraceEvents,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			}
			r.TraceDetEvents = strPS.TraceEvents == sinkPS.TraceEvents
			det := "events=eq"
			if !r.TraceDetEvents {
				det = "events=DIVERGED"
			}
			if hash {
				r.TraceDetHash = strPS.TraceHash == sinkPS.TraceHash
				if r.TraceDetHash {
					det += " hash=eq"
				} else {
					det += " hash=DIVERGED"
				}
			} else {
				r.TraceSkipped = fmt.Sprintf("n exceeds hash check cap %d", hashCheckCap)
				det += " hash=skipped"
			}
			if !r.TraceDetEvents || (hash && !r.TraceDetHash) {
				return nil, fmt.Errorf("exp: stream n=%d %s: canonical traces diverged between result and sink delivery", n, mode.name)
			}
			fmt.Fprintf(w, "%8d %-12s %12s %12s %14d %14d %s\n",
				n, mode.name, strT.Round(time.Microsecond), sinkT.Round(time.Microsecond),
				strPS.PeakBytes, sinkPS.PeakBytes, det)
			out = append(out, r)
		}
	}
	return out, nil
}

// WriteStreamBenchJSON writes the streaming benchmark rows as indented
// JSON to path.
func WriteStreamBenchJSON(path string, results []StreamBenchResult) error {
	return writeJSON(path, results)
}
