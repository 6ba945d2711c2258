package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oblivjoin/internal/catalog"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/table"
)

func openDB(t *testing.T, dir string, opts Options) (*DB, *RecoveryInfo) {
	t.Helper()
	db, info, err := Open(dir, catalog.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, info
}

// snapshotOf reads every table through the bound catalog.
func snapshotOf(t *testing.T, db *DB) map[string][]table.Row {
	t.Helper()
	snap, err := db.Catalog().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestOpenCloseReopen: the basic durability contract — what was
// committed before a clean Close is byte-identical after reopening the
// same directory, and the clean marker is recognized exactly once.
func TestOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db, info := openDB(t, dir, Options{})
	if info.Version != 0 || info.Tables != 0 || info.CleanShutdown {
		t.Fatalf("fresh open info = %+v", info)
	}
	if err := db.Register("users", mkRows(t, 40, 'u')); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("orders", mkRows(t, 17, 'o')); err != nil {
		t.Fatal(err)
	}
	if err := db.Replace("orders", mkRows(t, 5, 'p')); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, db)
	ver := db.Catalog().Version()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed DBs refuse mutations but tolerate a second Close.
	if err := db.Register("x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, info2 := openDB(t, dir, Options{})
	defer db2.Close()
	if !info2.CleanShutdown {
		t.Fatalf("reopen info = %+v, want CleanShutdown", info2)
	}
	if info2.Version != ver || info2.Tables != 2 {
		t.Fatalf("reopen info = %+v, want version %d, 2 tables", info2, ver)
	}
	if got := snapshotOf(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables differ:\n got %v\nwant %v", got, want)
	}
	if db2.Catalog().Version() != ver {
		t.Fatalf("recovered version = %d, want %d", db2.Catalog().Version(), ver)
	}
}

// TestCrashRecovery: Abandon skips the final snapshot, sync and clean
// marker — every acknowledged commit must still be there, recovered
// from the WAL alone, and the unclean shutdown must be reported.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	if err := db.Register("t", mkRows(t, 100, 'a')); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Replace("t", mkRows(t, 100+i, 'b')); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register("gone", mkRows(t, 3, 'g')); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, db)
	ver := db.Catalog().Version()
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}

	db2, info := openDB(t, dir, Options{})
	defer db2.Close()
	if info.CleanShutdown {
		t.Fatal("crash reported as clean shutdown")
	}
	if info.Tail != nil {
		t.Fatalf("synced log recovered with tail %v", info.Tail)
	}
	if info.Version != ver || info.Replayed != int(ver) {
		t.Fatalf("info = %+v, want version %d with %d replayed", info, ver, ver)
	}
	if got := snapshotOf(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables differ:\n got %v\nwant %v", got, want)
	}
	if db2.Catalog().Has("gone") {
		t.Fatal("dropped table resurrected by replay")
	}
}

// TestSnapshotRotation: with SnapshotEvery=4 a stream of commits
// rotates the WAL onto fresh snapshots, obsolete files are removed,
// and recovery from the latest snapshot + short tail is exact.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{SnapshotEvery: 4})
	if err := db.Register("t", mkRows(t, 8, 'a')); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ { // 14 commits total: 3 rotations + live tail
		if err := db.Replace("t", mkRows(t, 8+i, 'b')); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotOf(t, db)
	ver := db.Catalog().Version()
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("obsolete snapshots not cleaned: %v", snaps)
	}
	if snaps[0] != 12 {
		t.Fatalf("latest snapshot at v%d, want v12", snaps[0])
	}

	db2, info := openDB(t, dir, Options{SnapshotEvery: 4})
	defer db2.Close()
	if info.SnapshotVersion != 12 || info.Replayed != int(ver)-12 {
		t.Fatalf("info = %+v, want snapshot v12 + %d replayed", info, int(ver)-12)
	}
	if got := snapshotOf(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables differ:\n got %v\nwant %v", got, want)
	}
}

// TestTornTailDiscarded: bytes beyond the last fsync — a torn final
// append — are discarded on open, reported in RecoveryInfo, and the
// log remains appendable.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	if err := db.Register("t", mkRows(t, 30, 'a')); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, db)
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(0))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: a plausible frame header promising more bytes than
	// the file holds.
	if _, err := f.Write([]byte{0x80, 0x01, 0, 0, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, info := openDB(t, dir, Options{})
	if info.Tail == nil || !errors.Is(info.Tail, ErrTruncated) {
		t.Fatalf("info.Tail = %v, want ErrTruncated", info.Tail)
	}
	if info.DiscardedBytes != 10 {
		t.Fatalf("DiscardedBytes = %d, want 10", info.DiscardedBytes)
	}
	if got := snapshotOf(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables differ:\n got %v\nwant %v", got, want)
	}
	// The truncated log must accept and persist new commits.
	if err := db2.Register("t2", mkRows(t, 2, 'z')); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, info3 := openDB(t, dir, Options{})
	defer db3.Close()
	if info3.Tail != nil || !db3.Catalog().Has("t2") {
		t.Fatalf("post-truncation commits lost: info=%+v", info3)
	}
}

// TestOldFormatDirRefusedUntouched: testdata/v1 is a data directory
// written by the format-1 (AES-CTR + HMAC) build — key, one snapshot
// and a WAL with two commits over it. Opening it, even with
// DiscardCorruptTail, must fail with ErrFormat naming the unsupported
// version and must leave every file byte-identical: an old-format log
// is not a damaged tail to be truncated away.
func TestOldFormatDirRefusedUntouched(t *testing.T) {
	src := filepath.Join("testdata", "v1")
	names := []string{"master.key", snapName(1), walName(1)}
	dir := t.TempDir()
	want := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = b
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	_, _, err := Open(dir, catalog.New(), Options{DiscardCorruptTail: true})
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	if !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("err %q does not name the unsupported version", err)
	}

	// The old log on its own is refused as a fatal error, not a tail.
	_, _, _, tail, err := ReplayFile(filepath.Join(dir, walName(1)), testCipher(t), func(Record) error { return nil })
	if tail != nil || !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("replay: tail = %v, err = %v; want no tail and ErrFormat naming version 1", tail, err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("data dir holds %d entries after the refused open, want %d", len(entries), len(names))
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[name]) {
			t.Fatalf("%s changed by the refused open", name)
		}
	}
}

// TestCorruptTailIsTyped: damage to once-acknowledged bytes is not
// silently dropped — Open fails with a positioned *TailError — unless
// the caller opts into DiscardCorruptTail.
func TestCorruptTailIsTyped(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	if err := db.Register("keep", mkRows(t, 10, 'k')); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("lost", mkRows(t, 10, 'l')); err != nil {
		t.Fatal(err)
	}
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff // inside the last record's sealed rows
	if err := os.WriteFile(walPath, data, 0o600); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, catalog.New(), Options{})
	var te *TailError
	if !errors.As(err, &te) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want *TailError wrapping ErrChecksum", err)
	}
	if te.Index != 1 {
		t.Fatalf("damage at record %d, want 1", te.Index)
	}

	// Opt-in discard: the damaged suffix is dropped, the prefix stands.
	db2, info := openDB(t, dir, Options{DiscardCorruptTail: true})
	defer db2.Close()
	if info.Tail == nil || !errors.Is(info.Tail, ErrChecksum) {
		t.Fatalf("info.Tail = %v, want ErrChecksum", info.Tail)
	}
	if info.DiscardedBytes <= 0 {
		t.Fatalf("DiscardedBytes = %d, want > 0", info.DiscardedBytes)
	}
	if !db2.Catalog().Has("keep") || db2.Catalog().Has("lost") {
		t.Fatalf("discard kept the wrong records: %v", snapshotOf(t, db2))
	}
}

// TestBranchAndRestoreDurability: Branch and RestoreTable materialize
// history into the log, so recovery reproduces them with no history of
// its own.
func TestBranchAndRestoreDurability(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	v1Rows := mkRows(t, 12, 'a')
	if err := db.Register("t", v1Rows); err != nil { // v1
		t.Fatal(err)
	}
	if err := db.Replace("t", mkRows(t, 30, 'b')); err != nil { // v2
		t.Fatal(err)
	}
	if err := db.Branch("t_old", "t", 1); err != nil { // v3: t as of v1
		t.Fatal(err)
	}
	if err := db.RestoreTable("t", 1); err != nil { // v4: rewind t
		t.Fatal(err)
	}
	// Branching onto a taken name or from a missing table is refused
	// without consuming a version.
	if err := db.Branch("t_old", "t", 0); err == nil {
		t.Fatal("branch onto existing name succeeded")
	}
	if err := db.Branch("x", "absent", 0); err == nil {
		t.Fatal("branch from missing table succeeded")
	}
	if v := db.Catalog().Version(); v != 4 {
		t.Fatalf("version = %d, want 4 (failed branches must not commit)", v)
	}
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}

	db2, info := openDB(t, dir, Options{})
	defer db2.Close()
	if info.Replayed != 4 {
		t.Fatalf("replayed %d records, want 4", info.Replayed)
	}
	got := snapshotOf(t, db2)
	if !reflect.DeepEqual(got["t_old"], v1Rows) || !reflect.DeepEqual(got["t"], v1Rows) {
		t.Fatalf("branch/restore not recovered: %v", got)
	}
}

// TestWrongKeyRefused: replacing the master key makes every sealed
// byte unreadable — recovery reports authentication failure instead of
// returning plaintext-less garbage.
func TestWrongKeyRefused(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	if err := db.Register("t", mkRows(t, 64, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	other := make([]byte, 32)
	other[0] = 1
	if err := os.WriteFile(filepath.Join(dir, keyFile), other, 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, catalog.New(), Options{})
	if !errors.Is(err, crypto.ErrAuth) {
		t.Fatalf("err = %v, want crypto.ErrAuth", err)
	}
}

// TestCheckpoint: an explicit checkpoint snapshots at the current
// version and restarts the WAL; recovery needs zero replayed records.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _ := openDB(t, dir, Options{})
	if err := db.Register("t", mkRows(t, 25, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Idempotent at the same version.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, db)
	if err := db.Abandon(); err != nil {
		t.Fatal(err)
	}
	db2, info := openDB(t, dir, Options{})
	defer db2.Close()
	if info.SnapshotVersion != 1 || info.Replayed != 0 {
		t.Fatalf("info = %+v, want snapshot v1 + 0 replayed", info)
	}
	if got := snapshotOf(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables differ:\n got %v\nwant %v", got, want)
	}
}
