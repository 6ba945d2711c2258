package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"oblivjoin"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
)

// Input sizes are part of each workload.
const (
	pkfkRows = 4096 // join-pkfk: 4096-key PK ⋈ 4096-row FK, m = 4096

	sqlRows   = 512       // sql-sealed: t1, t2, t3, matched one-to-one
	sqlBudget = 128 << 10 // sql-sealed MemBudget: joins spill, sort and group-by fit

	ingestTables   = 8   // ingest-mixed: g0..g7
	ingestRows     = 512 // rows per table, keys 0..255 twice each
	ingestVersions = 4   // pre-generated versions per table a write cycles through

	topLimit = 50 // LIMIT of the filter + ORDER BY + LIMIT shape

	// rowBytes is one user row (key + payload) as a client supplies it.
	rowBytes = 8 + table.DataLen
)

// env is what every workload is set up with.
type env struct {
	seed  int64
	nproc int
	dir   string // run-private scratch directory inside the checkout
}

// subSeed derives an independent input seed from the run's seed.
func subSeed(seed, tag int64) int64 { return seed*1_000_003 + tag }

// guardTag selects the second input set of the obliviousness guard.
const guardTag = 99

// instance is one set-up workload, ready for its timed window.
type instance interface {
	clients() int
	// op runs one op; pr is nil outside the profiled window.
	op(c, seq int, pr *profile) (write bool, d time.Duration, err error)
	// service is the in-process service the workload drives, if any.
	service() *service.Service
	close()
}

// workload is one named input set and traffic mix.
type workload struct {
	name string
	why  string
	// gen builds the base tables from a seed. Any two seeds give tables
	// of equal public sizes and different contents.
	gen func(seed int64) map[string][]table.Row
	// stmts are the workload's SQL statements; for join-pkfk, the SQL
	// forms of its join and of the other shapes over its tables, which
	// only the profile runs.
	stmts []stmt
	// joinL and joinR name the pair the bare-join profile and guard use.
	joinL, joinR string
	// sealedJoin runs that bare join over sealed stores.
	sealedJoin bool
	// config is how the workload's service executes statements; dir is
	// a scratch directory for spill files.
	config func(e *env, dir string) service.Config
	setup  func(w *workload, e *env, dir string, tabs map[string][]table.Row) (instance, error)
}

var workloads = []*workload{joinPKFK, sqlSealed, ingestMixed}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ── join-pkfk ───────────────────────────────────────────────────────

var joinPKFK = &workload{
	name: "join-pkfk",
	why:  "the paper's Algorithm 1 on the library path: core, bitonic and obliv do the work; service, query, crypto and wal are bypassed",
	gen: func(seed int64) map[string][]table.Row {
		rng := rand.New(rand.NewSource(seed))
		return map[string][]table.Row{
			"pk": makeRows(rng, uniqueKeys(rng, pkfkRows)),
			"fk": makeRows(rng, pairedKeys(rng, pkfkRows)),
		}
	},
	stmts: []stmt{
		newStmt(shapeJoin, 0, 0, "pk", "fk"),
		newStmt(shapeJoinGroup, 0, 0, "pk", "fk"),
		newStmt(shapeSort, 0, 0, "pk"),
		newStmt(shapeTopN, pkfkRows/4, topLimit, "pk"),
	},
	joinL: "pk", joinR: "fk",
	config: func(e *env, _ string) service.Config {
		return service.Config{Defaults: query.Options{Workers: e.nproc}}
	},
	setup: setupJoin,
}

type joinInst struct {
	left, right *oblivjoin.Table
	opts        oblivjoin.Options
	want        string
}

func setupJoin(_ *workload, e *env, _ string, tabs map[string][]table.Row) (instance, error) {
	j := &joinInst{
		left:  oblivjoin.FromRows(tabs["pk"]),
		right: oblivjoin.FromRows(tabs["fk"]),
		opts:  oblivjoin.Options{Workers: e.nproc},
		want:  joinDigest(tabs["pk"], tabs["fk"]),
	}
	if _, _, err := j.op(0, 0, nil); err != nil { // warm-up
		return nil, err
	}
	return j, nil
}

// joinDigest is the reference digest of a bare join's payload pairs.
func joinDigest(left, right []table.Row) string {
	var rows [][]string
	for _, p := range refJoin(left, right) {
		rows = append(rows, []string{p.l, p.r})
	}
	return digest(rows)
}

func pairRows(ps []oblivjoin.Pair) [][]string {
	rows := make([][]string, len(ps))
	for i, p := range ps {
		rows[i] = []string{p.Left, p.Right}
	}
	return rows
}

func (j *joinInst) clients() int              { return 1 }
func (j *joinInst) service() *service.Service { return nil }
func (j *joinInst) close()                    {}

func (j *joinInst) op(_, _ int, pr *profile) (bool, time.Duration, error) {
	opts := j.opts
	opts.CollectStats = pr != nil
	t0 := time.Now()
	res, err := oblivjoin.Join(j.left, j.right, &opts)
	d := time.Since(t0)
	if err != nil {
		return false, d, fmt.Errorf("join: %w", err)
	}
	pr.joinOp(d, res.Stats)
	if g := digest(pairRows(res.Pairs)); g != j.want {
		return false, d, fmt.Errorf("join: %d pairs with digest %s, reference digest %s", len(res.Pairs), g, j.want)
	}
	return false, d, nil
}

// ── sql-sealed ──────────────────────────────────────────────────────

var sqlSealed = &workload{
	name: "sql-sealed",
	why:  "the paper's deployment: sealed stores and catalog, two clients queued by admission, joins spilling under a memory budget",
	gen: func(seed int64) map[string][]table.Row {
		rng := rand.New(rand.NewSource(seed))
		tabs := map[string][]table.Row{}
		for _, n := range []string{"t1", "t2", "t3"} {
			tabs[n] = makeRows(rng, uniqueKeys(rng, sqlRows))
		}
		return tabs
	},
	stmts: []stmt{
		newStmt(shapeJoin, 0, 0, "t1", "t2"),
		newStmt(shapeChain, 0, 0, "t1", "t2", "t3"),
		newStmt(shapeJoinGroup, 0, 0, "t2", "t3"),
		newStmt(shapeSort, 0, 0, "t1"),
		newStmt(shapeTopN, sqlRows/4, topLimit, "t2"),
	},
	joinL: "t1", joinR: "t2", sealedJoin: true,
	config: func(e *env, dir string) service.Config {
		return service.Config{
			Defaults: query.Options{
				Encrypted: true,
				Workers:   e.nproc,
				MemBudget: sqlBudget,
				SpillDir:  dir,
			},
			SealedCatalog: true,
			MaxInFlight:   1,
		}
	},
	setup: setupSQL,
}

type sqlInst struct {
	svc   *service.Service
	stmts []stmt
	want  []string
	bags  [2]*shuffleBag
}

func setupSQL(w *workload, e *env, dir string, tabs map[string][]table.Row) (instance, error) {
	svc, err := openService(w.config(e, dir), tabs)
	if err != nil {
		return nil, err
	}
	s := &sqlInst{svc: svc, stmts: w.stmts}
	for c := range s.bags {
		s.bags[c] = newShuffleBag(subSeed(e.seed, int64(20+c)), len(s.stmts))
	}
	for _, st := range s.stmts {
		s.want = append(s.want, digest(reference(st, tabs)))
	}
	for i, st := range s.stmts { // warm-up: fills the plan cache
		if _, err := execStmt(svc, st, s.want[i], nil); err != nil {
			shutdown(svc)
			return nil, err
		}
	}
	return s, nil
}

func (s *sqlInst) clients() int              { return 2 }
func (s *sqlInst) service() *service.Service { return s.svc }
func (s *sqlInst) close()                    { shutdown(s.svc) }

// op runs each client's next shape. Every client runs every shape once
// in each block of five, in a seeded order, so which shape it queues
// behind varies: a fixed rotation makes the two clients' latencies ten
// fixed clusters of a tenth each, which puts p50 and p90 on the edges
// between clusters.
func (s *sqlInst) op(c, _ int, pr *profile) (bool, time.Duration, error) {
	i := s.bags[c].next()
	d, err := execStmt(s.svc, s.stmts[i], s.want[i], pr)
	return false, d, err
}

// shuffleBag deals 0..n-1 in seeded random order, reshuffling after
// every n draws. It is used by one client goroutine only.
type shuffleBag struct {
	rng  *rand.Rand
	deck []int
	pos  int
}

func newShuffleBag(seed int64, n int) *shuffleBag {
	b := &shuffleBag{rng: rand.New(rand.NewSource(seed)), deck: make([]int, n), pos: n}
	for i := range b.deck {
		b.deck[i] = i
	}
	return b
}

func (b *shuffleBag) next() int {
	if b.pos == len(b.deck) {
		b.rng.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
		b.pos = 0
	}
	b.pos++
	return b.deck[b.pos-1]
}

// openService starts a service and registers tabs in name order.
func openService(cfg service.Config, tabs map[string][]table.Row) (*service.Service, error) {
	if cfg.Defaults.SpillDir != "" {
		if err := os.MkdirAll(cfg.Defaults.SpillDir, 0o755); err != nil {
			return nil, err
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	names := make([]string, 0, len(tabs))
	for n := range tabs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if err := svc.Register(n, tabs[n]); err != nil {
			shutdown(svc)
			return nil, fmt.Errorf("register %s: %w", n, err)
		}
	}
	return svc, nil
}

func shutdown(svc *service.Service) {
	// A failed final snapshot leaves nothing for the benchmark to
	// report: every durable check runs before this point.
	_ = svc.Shutdown(context.Background())
}

// execStmt runs one read as a client would: Prepare, then Exec, timed
// from the call to the return, then checked against the reference.
func execStmt(svc *service.Service, s stmt, want string, pr *profile) (time.Duration, error) {
	var opts []service.SessionOption
	if pr != nil {
		opts = append(opts, service.WithStats(true))
	}
	ctx := context.Background()
	t0 := time.Now()
	p, err := svc.Prepare(ctx, s.sql, opts...)
	tp := time.Since(t0)
	if err != nil {
		return tp, fmt.Errorf("prepare %q: %w", s.sql, err)
	}
	res, ps, err := p.Exec(ctx)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("exec %q: %w", s.sql, err)
	}
	pr.sqlOp(tp, d, ps)
	return d, checkRows(s, res.Rows, want)
}

// ── ingest-mixed ────────────────────────────────────────────────────

var ingestMixed = &workload{
	name: "ingest-mixed",
	why:  "writes beside reads: durable WAL, catalog and at-rest sealing; every write bumps the catalog version, so reads miss the plan cache",
	gen:  genIngest,
	stmts: func() []stmt {
		var all []stmt
		for c := 0; c < 2; c++ {
			for _, shape := range ingestReads(c) {
				all = append(all, shape...)
			}
		}
		return all
	}(),
	joinL: ingestName(0), joinR: ingestName(2),
	config: func(*env, string) service.Config {
		return service.Config{SealedCatalog: true}
	},
	setup: setupIngest,
}

func ingestName(i int) string { return fmt.Sprintf("g%d", i) }

func genIngest(seed int64) map[string][]table.Row {
	rng := rand.New(rand.NewSource(seed))
	tabs := map[string][]table.Row{}
	for i := 0; i < ingestTables; i++ {
		tabs[ingestName(i)] = makeRows(rng, pairedKeys(rng, ingestRows))
	}
	return tabs
}

// ingestOwned lists the tables client c writes and reads. Each table has
// one writer, so its last acknowledged version is well defined, and a
// client's reads see only versions it wrote itself.
func ingestOwned(c int) []int {
	var own []int
	for i := c; i < ingestTables; i += 2 {
		own = append(own, i)
	}
	return own
}

// ingestReads is client c's read mix by shape: every 2-way join of its
// tables, a GROUP BY of each, and a range filter of each. A read picks
// a shape, then a statement of that shape, so each shape is a third of
// the reads and p50 falls in the middle of the GROUP BY latencies rather
// than at the edge of a cluster.
func ingestReads(c int) [3][]stmt {
	own := ingestOwned(c)
	var out [3][]stmt
	for i, a := range own {
		for _, b := range own[i+1:] {
			out[0] = append(out[0], newStmt(shapeJoin, 0, 0, ingestName(a), ingestName(b)))
		}
		out[1] = append(out[1], newStmt(shapeGroup, 0, 0, ingestName(a)))
		out[2] = append(out[2], newStmt(shapeRange, ingestRows/8, 0, ingestName(a)))
	}
	return out
}

type ingestInst struct {
	svc      *service.Service
	cfg      service.Config
	versions [ingestTables][ingestVersions][]table.Row
	cur      [ingestTables]int // current version; written only by the table's owner
	reads    [2][3][]stmt      // per client, per shape
	rngs     [2]*rand.Rand
	acked    [2]int64          // user bytes in acknowledged writes, per client
	want     map[string]string // reference digest by readKey
}

func setupIngest(w *workload, e *env, dir string, tabs map[string][]table.Row) (instance, error) {
	g := &ingestInst{want: map[string]string{}}
	for t := 0; t < ingestTables; t++ {
		g.versions[t][0] = tabs[ingestName(t)]
	}
	for v := 1; v < ingestVersions; v++ {
		next := genIngest(subSeed(e.seed, int64(v)))
		for t := 0; t < ingestTables; t++ {
			g.versions[t][v] = next[ingestName(t)]
		}
	}
	for c := range g.reads {
		g.reads[c] = ingestReads(c)
		g.rngs[c] = rand.New(rand.NewSource(subSeed(e.seed, int64(10+c))))
		for _, shape := range g.reads[c] {
			for _, s := range shape {
				g.referenceAll(s)
			}
		}
	}
	g.cfg = w.config(e, dir)
	g.cfg.DataDir = filepath.Join(dir, "data")
	svc, err := openService(g.cfg, tabs)
	if err != nil {
		return nil, err
	}
	g.svc = svc
	for _, s := range w.stmts { // warm-up
		if _, err := execStmt(svc, s, g.want[g.readKey(s)], nil); err != nil {
			shutdown(svc)
			return nil, err
		}
	}
	return g, nil
}

// tableIndex parses a table name back to its index.
func tableIndex(name string) int {
	var i int
	fmt.Sscanf(name, "g%d", &i)
	return i
}

// readKey names s at the tables' current versions.
func (g *ingestInst) readKey(s stmt) string {
	k := s.sql
	for _, n := range s.tables {
		k += fmt.Sprintf("|%d", g.cur[tableIndex(n)])
	}
	return k
}

// referenceAll computes s's reference answer at every combination of
// its tables' versions.
func (g *ingestInst) referenceAll(s stmt) {
	var rec func(i int, key string, tabs map[string][]table.Row)
	rec = func(i int, key string, tabs map[string][]table.Row) {
		if i == len(s.tables) {
			g.want[key] = digest(reference(s, tabs))
			return
		}
		t := tableIndex(s.tables[i])
		for v := 0; v < ingestVersions; v++ {
			next := map[string][]table.Row{s.tables[i]: g.versions[t][v]}
			for n, r := range tabs {
				next[n] = r
			}
			rec(i+1, key+fmt.Sprintf("|%d", v), next)
		}
	}
	rec(0, s.sql, map[string][]table.Row{})
}

func (g *ingestInst) clients() int              { return 2 }
func (g *ingestInst) service() *service.Service { return g.svc }
func (g *ingestInst) close()                    { shutdown(g.svc) }

// op alternates: even ops write, odd ops read.
func (g *ingestInst) op(c, seq int, pr *profile) (bool, time.Duration, error) {
	rng := g.rngs[c]
	if seq%2 == 0 {
		own := ingestOwned(c)
		t := own[rng.Intn(len(own))]
		v := (g.cur[t] + 1) % ingestVersions
		rows := g.versions[t][v]
		t0 := time.Now()
		err := g.svc.Replace(ingestName(t), rows)
		d := time.Since(t0)
		if err != nil {
			return true, d, fmt.Errorf("replace %s: %w", ingestName(t), err)
		}
		pr.writeOp(d)
		g.cur[t] = v
		g.acked[c] += int64(len(rows)) * rowBytes
		return true, d, nil
	}
	shape := g.reads[c][rng.Intn(len(g.reads[c]))]
	s := shape[rng.Intn(len(shape))]
	d, err := execStmt(g.svc, s, g.want[g.readKey(s)], pr)
	return false, d, err
}

// ackedBytes is the user bytes of every acknowledged write.
func (g *ingestInst) ackedBytes() int64 { return g.acked[0] + g.acked[1] }

// reopen drops the service without Shutdown, as a crash would, opens
// the data directory again, and checks that every table came back
// byte-identical to its last acknowledged version. It returns the
// reopened service.
func (g *ingestInst) reopen() (*service.Service, error) {
	g.svc = nil // abandoned: no Shutdown, no final snapshot
	svc, err := service.New(g.cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen data dir: %w", err)
	}
	g.svc = svc
	for t := 0; t < ingestTables; t++ {
		name := ingestName(t)
		got, err := svc.Catalog().SnapshotTables([]string{name})
		if err != nil {
			return svc, fmt.Errorf("durability: %s: %w", name, err)
		}
		if want := g.versions[t][g.cur[t]]; !slices.Equal(got[name], want) {
			return svc, fmt.Errorf("durability: %s came back as %d rows unlike its last acknowledged version %d (%d rows)",
				name, len(got[name]), g.cur[t], len(want))
		}
	}
	return svc, nil
}
