// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points — oblivjoin.Join and an
// in-process service.Service — in a closed loop for a fixed window,
// checks every result against an independent reference, and prints a
// human-readable record followed, as its last line, by one JSON object
// with the run's metrics.
//
//	go run . --workload sql-sealed --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the profiled
// run: it times calls into each layer from this package, reads the
// accounts the program exports (Stats.Phases, PlanStats.Operators,
// CacheStats), runs the obliviousness guard and prints the per-layer
// metrics. (The flag name is part of the command-line contract of
// BENCHMARK.json; elsewhere in this repository a "trace" means the
// public-memory access trace.)
//
// Run it from the repository root: scratch files go to
// .bench_build/run-<pid>/ there and are removed on exit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"oblivjoin/internal/service"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: join-pkfk, sql-sealed or ingest-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the timed window")
	profiled := fs.Int("trace", 0, "0: end-to-end metrics; 1: the profiled run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*profiled != 0 && *profiled != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (join-pkfk, sql-sealed, ingest-mixed), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, nproc: runtime.NumCPU(), dir: dir}

	var rec bytes.Buffer
	writeProvenance(&rec, w, e, *seconds, *profiled == 1)
	b := &bench{w: w, e: e, window: time.Duration(*seconds) * time.Second, rec: &rec, metrics: metrics{}}
	if *profiled == 1 {
		err = b.profiledRun(start)
	} else {
		err = b.measuredRun(start)
	}
	stdout.Write(rec.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", f)
	}
	line, err := json.Marshal(result{
		Correct:   len(b.failures) == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric's name to its value and unit.
type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// write prints the metrics in name order, which groups them by module.
func (m metrics) write(w io.Writer) {
	for _, n := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// bench is one run of one workload.
type bench struct {
	w         *workload
	e         *env
	window    time.Duration
	rec       *bytes.Buffer // the human-readable record
	metrics   metrics       // what the JSON line reports
	attempted int
	failed    int
	failures  []error // failed correctness checks
}

func (b *bench) fail(err error) { b.failures = append(b.failures, err) }

// setUp sets the workload up setupRounds times and keeps the last
// instance. The first round is timed from process start; each round
// covers generating inputs, opening the service or data dir,
// registering tables, computing reference answers and the warm-up.
func (b *bench) setUp(start time.Time) (instance, []float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		dir := filepath.Join(b.e.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		in, err := b.w.setup(b.w, b.e, dir, b.w.gen(b.e.seed))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = in
	}
	return inst, times, nil
}

func (b *bench) runOps(inst instance, d time.Duration, pr *profile) *tally {
	t := runWindow(d, inst.clients(), func(c, seq int) (bool, time.Duration, error) {
		return inst.op(c, seq, pr)
	})
	b.attempted += t.attempted
	b.failed += t.failed
	if t.firstErr != nil {
		b.fail(fmt.Errorf("%d of %d ops failed, first: %w", t.failed, t.attempted, t.firstErr))
	}
	return t
}

// afterWindow runs the post-window durability check of ingest-mixed
// and returns the service later probes may use (nil for other
// workloads).
func (b *bench) afterWindow(inst instance) *service.Service {
	g, ok := inst.(*ingestInst)
	if !ok {
		return nil
	}
	svc, err := g.reopen()
	if err != nil {
		b.fail(err)
	} else {
		fmt.Fprintf(b.rec, "durability: all %d tables reopened byte-identical to their last acknowledged version\n", ingestTables)
	}
	return svc
}

// measuredRun is the unprofiled run: end-to-end metrics only.
func (b *bench) measuredRun(start time.Time) error {
	inst, setups, err := b.setUp(start)
	if err != nil {
		return err
	}
	defer func() { inst.close() }()
	rss := startRSS()
	before := snapshot()
	t := b.runOps(inst, b.window, nil)
	after := snapshot()
	peakRSS := rss.finish()
	b.afterWindow(inst)

	m := b.metrics
	m.add("setup_s", median(setups), "s")
	m.add("throughput_ops_s", float64(t.completed())/t.elapsed.Seconds(), "1/s")
	m.add("query_p50_ms", ms(quantile(t.reads, 0.5)), "ms")
	m.add("query_p90_ms", ms(quantile(t.reads, 0.9)), "ms")
	m.add("peak_rss_mb", peakRSS, "MB")

	// Metrics that only some workloads have stay in the record: the
	// JSON line carries the metrics every workload reports.
	extra := metrics{}
	if len(t.writes) > 0 {
		extra.add("write_p50_ms", ms(quantile(t.writes, 0.5)), "ms")
		extra.add("write_p90_ms", ms(quantile(t.writes, 0.9)), "ms")
		if g, ok := inst.(*ingestInst); ok && before.wchar >= 0 && g.ackedBytes() > 0 {
			extra.add("write_amp", float64(after.wchar-before.wchar)/float64(g.ackedBytes()), "ratio")
		}
	}
	extra.add("error_rate", float64(t.failed)/float64(max(t.attempted, 1)), "ratio")
	extra.add("max_rss_mb", maxRSSMB(), "MB")

	fmt.Fprintf(b.rec, "window: %.3f s, %d ops attempted, %d reads, %d writes, %d failed; set-ups %.3f s\n",
		t.elapsed.Seconds(), t.attempted, len(t.reads), len(t.writes), t.failed, setups)
	fmt.Fprintf(b.rec, "host CPU during the window: %s\n", hostShares(before, after))
	fmt.Fprintf(b.rec, "end-to-end metrics (latencies on this host's clock, from call to return):\n")
	m.write(b.rec)
	extra.write(b.rec)
	return nil
}

// profiledRun splits the window: the first half unprofiled, the second
// profiled, whose p50 ratio is the profiling overhead. Then it fills
// every layer metric the window did not exercise from a probe on the
// workload's own inputs, and runs the obliviousness guard.
func (b *bench) profiledRun(start time.Time) error {
	inst, _, err := b.setUp(start)
	if err != nil {
		return err
	}
	defer func() { inst.close() }()
	w, e, m := b.w, b.e, b.metrics
	tabs := w.gen(e.seed)
	probeDir := filepath.Join(e.dir, "probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}

	half := b.window / 2
	plain := b.runOps(inst, half, nil)
	pr := newProfile()
	svc := inst.service()
	var cs0, cs1 service.CacheStats
	if svc != nil {
		cs0 = svc.CacheStats()
	}
	before := snapshot()
	prof := b.runOps(inst, b.window-half, pr)
	after := snapshot()
	if svc != nil {
		cs1 = svc.CacheStats()
	}
	snapSvc := b.afterWindow(inst)
	fmt.Fprintf(b.rec, "windows: unprofiled %d ops in %.3f s, profiled %d ops in %.3f s\n",
		plain.attempted, plain.elapsed.Seconds(), prof.attempted, prof.elapsed.Seconds())
	fmt.Fprintf(b.rec, "host CPU during the profiled window: %s\n", hostShares(before, after))
	pr.writeAccount(b.rec, "window")

	// service and exec: from the window's reads, or from a probe.
	sqlProf, hit := pr, hitRatio(cs0, cs1)
	if pr.reads() == 0 {
		if sqlProf, hit, err = probeSQL(w, e, probeDir, tabs); err != nil {
			return err
		}
		sqlProf.writeAccount(b.rec, "SQL probe over this workload's tables")
	}
	m.add("service.plan_cache_hit_ratio", hit, "ratio")
	sqlProf.sqlLayers(m)
	ex, err := guard(w, e, probeDir)
	if err != nil {
		b.fail(err)
		ex = &exactRun{}
	} else {
		fmt.Fprintf(b.rec, "obliviousness guard: %d statements and the bare join agree on trace hash, comparators, route ops and peak bytes over two input sets\n", len(w.stmts))
	}
	ex.execLayers(m)

	// core: from the window's joins, or from a probe.
	coreProf := pr
	if pr.joins() == 0 {
		if coreProf, err = probeCore(w, e, tabs); err != nil {
			return err
		}
		coreProf.writeAccount(b.rec, "bare-join probe "+w.joinL+" ⋈ "+w.joinR)
	}
	coreProf.coreLayers(m)

	rng := newProbeRand(e.seed)
	probeBitonic(m, rng, e.nproc)
	if err := probeStores(m, rng, probeDir); err != nil {
		return err
	}
	if err := probeCrypto(m); err != nil {
		return err
	}
	if err := probeWrites(m, rng, probeDir); err != nil {
		return err
	}
	snapTable, snapRows := w.joinL, tabs[w.joinL]
	if g, ok := inst.(*ingestInst); ok {
		snapRows = g.versions[tableIndex(snapTable)][g.cur[tableIndex(snapTable)]]
	}
	if snapSvc == nil {
		cfg := w.config(e, probeDir)
		cfg.DataDir = filepath.Join(probeDir, "data")
		if snapSvc, err = openService(cfg, tabs); err != nil {
			return err
		}
	}
	err = probeSnapshot(m, snapSvc, snapTable, snapRows)
	shutdown(snapSvc)
	if err != nil {
		return err
	}
	if err := probeQuery(m, w, w.config(e, probeDir).Defaults, tabs); err != nil {
		return err
	}

	ops := prof.attempted
	cpuWall := after.wall.Sub(before.wall).Seconds() * float64(e.nproc)
	m.add("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/(1<<20)/float64(max(ops, 1)), "MB")
	m.add("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/max(after.totalCPU-before.totalCPU, 1e-9), "ratio")
	m.add("runtime.cpu_util", (after.cpu-before.cpu).Seconds()/cpuWall, "ratio")
	m.add("profile.overhead_ratio", ms(quantile(prof.reads, 0.5))/ms(quantile(plain.reads, 0.5)), "ratio")

	fmt.Fprintf(b.rec, "per-layer metrics (source: the profiled window where it exercises the layer, else a probe on this workload's inputs):\n")
	m.write(b.rec)
	return nil
}

// writeProvenance stamps the record with where and how it was made.
func writeProvenance(w io.Writer, wl *workload, e *env, seconds int, profiled bool) {
	commit := "unknown (no VCS stamp in this build)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "perfbench %s: seed=%d seconds=%d profiled=%t\n", wl.name, e.seed, seconds, profiled)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Fprintf(w, "data and spill dirs: under %s, filesystem %s\n", filepath.Base(e.dir), fsType(e.dir))
	fmt.Fprintf(w, "load: one process, closed loop; durable writes fsync before ack, snapshot every 256 commits\n")
	fmt.Fprintf(w, "latencies are this host's: a shared %d-core machine, not a reference system\n", e.nproc)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return strings.ToLower(fmt.Sprintf("0x%x", st.Type))
}
