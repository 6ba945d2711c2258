package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"oblivjoin/internal/table"
)

// Inputs are generated from the seed alone. Every key set is a fixed
// multiset that the seed only shuffles, and only the payloads are drawn
// from the seed, so every public size — n1, n2, m, group counts, filter
// survivors — is the same for every seed. That keeps timings
// comparable across seeds and makes the exact counts seed-independent.

// uniqueKeys returns 0..n-1 in a seeded order.
func uniqueKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// pairedKeys returns 0..n/2-1, each twice, in a seeded order.
func pairedKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i / 2)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// payload draws one to four lowercase letters: short enough that a
// three-way chain's rekeyed payload fits table.DataLen, and free of the
// rekey separator so chained payloads concatenate verbatim.
func payload(rng *rand.Rand) table.Data {
	var b [4]byte
	n := 1 + rng.Intn(len(b))
	for i := 0; i < n; i++ {
		b[i] = byte('a' + rng.Intn(26))
	}
	return table.MustData(string(b[:n]))
}

func makeRows(rng *rand.Rand, keys []uint64) []table.Row {
	rows := make([]table.Row, len(keys))
	for i, k := range keys {
		rows[i] = table.Row{J: k, D: payload(rng)}
	}
	return rows
}

// shape is one statement form of the SQL workloads.
type shape int

const (
	shapeJoin      shape = iota // 2-way join
	shapeChain                  // 3-way join chain
	shapeJoinGroup              // join + GROUP BY COUNT(*), the §7 path
	shapeSort                   // ORDER BY
	shapeTopN                   // filter + ORDER BY + LIMIT
	shapeGroup                  // GROUP BY COUNT(*) over one table
	shapeRange                  // range filter + ORDER BY
)

// stmt is one SQL statement with what the reference needs to answer it.
type stmt struct {
	shape  shape
	tables []string
	bound  uint64 // filter bound: key < bound
	limit  int
	sql    string
}

func newStmt(sh shape, bound uint64, limit int, tables ...string) stmt {
	s := stmt{shape: sh, tables: tables, bound: bound, limit: limit}
	switch sh {
	case shapeJoin:
		s.sql = fmt.Sprintf("SELECT key, left.data, right.data FROM %s JOIN %s USING (key)", tables[0], tables[1])
	case shapeChain:
		s.sql = fmt.Sprintf("SELECT key, left.data, right.data FROM %s JOIN %s USING (key) JOIN %s USING (key)", tables[0], tables[1], tables[2])
	case shapeJoinGroup:
		s.sql = fmt.Sprintf("SELECT key, COUNT(*) FROM %s JOIN %s USING (key) GROUP BY key", tables[0], tables[1])
	case shapeSort:
		s.sql = fmt.Sprintf("SELECT key, data FROM %s ORDER BY key", tables[0])
	case shapeTopN:
		s.sql = fmt.Sprintf("SELECT key, data FROM %s WHERE key < %d ORDER BY key LIMIT %d", tables[0], bound, limit)
	case shapeGroup:
		s.sql = fmt.Sprintf("SELECT key, COUNT(*) FROM %s GROUP BY key", tables[0])
	case shapeRange:
		s.sql = fmt.Sprintf("SELECT key, data FROM %s WHERE key < %d ORDER BY key", tables[0], bound)
	}
	return s
}

// ordered reports whether the statement promises key order.
func (s stmt) ordered() bool {
	return s.shape == shapeSort || s.shape == shapeTopN || s.shape == shapeRange
}

// reference answers s with plain maps and sorts: an independent,
// non-oblivious evaluation used only to check the engine's results.
func reference(s stmt, tabs map[string][]table.Row) [][]string {
	u := func(k uint64) string { return strconv.FormatUint(k, 10) }
	d := table.DataString
	var out [][]string
	switch s.shape {
	case shapeJoin:
		for _, p := range refJoin(tabs[s.tables[0]], tabs[s.tables[1]]) {
			out = append(out, []string{u(p.k), p.l, p.r})
		}
	case shapeChain:
		first := refJoin(tabs[s.tables[0]], tabs[s.tables[1]])
		mid := make([]table.Row, len(first))
		for i, p := range first {
			mid[i] = table.Row{J: p.k, D: table.MustData(p.l + "+" + p.r)}
		}
		for _, p := range refJoin(mid, tabs[s.tables[2]]) {
			out = append(out, []string{u(p.k), p.l, p.r})
		}
	case shapeJoinGroup:
		counts := map[uint64]int{}
		for _, p := range refJoin(tabs[s.tables[0]], tabs[s.tables[1]]) {
			counts[p.k]++
		}
		for k, c := range counts {
			out = append(out, []string{u(k), strconv.Itoa(c)})
		}
	case shapeGroup:
		counts := map[uint64]int{}
		for _, r := range tabs[s.tables[0]] {
			counts[r.J]++
		}
		for k, c := range counts {
			out = append(out, []string{u(k), strconv.Itoa(c)})
		}
	case shapeSort, shapeTopN, shapeRange:
		rows := slices.Clone(tabs[s.tables[0]])
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].J < rows[j].J })
		for _, r := range rows {
			if s.shape != shapeSort && r.J >= s.bound {
				break
			}
			if s.shape == shapeTopN && len(out) == s.limit {
				break
			}
			out = append(out, []string{u(r.J), d(r.D)})
		}
	}
	return out
}

type refPair struct {
	k    uint64
	l, r string
}

// refJoin is a hash equi-join.
func refJoin(left, right []table.Row) []refPair {
	byKey := map[uint64][]string{}
	for _, r := range right {
		byKey[r.J] = append(byKey[r.J], table.DataString(r.D))
	}
	var out []refPair
	for _, l := range left {
		for _, r := range byKey[l.J] {
			out = append(out, refPair{l.J, table.DataString(l.D), r})
		}
	}
	return out
}

// digest is an order-insensitive fingerprint of a result's rows.
func digest(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkRows compares an engine result with the reference digest and,
// for ordered statements, checks that the keys never decrease (ties may
// come in any order, which the multiset digest already allows for).
func checkRows(s stmt, got [][]string, want string) error {
	if g := digest(got); g != want {
		return fmt.Errorf("%q: %d rows with digest %s, reference digest %s", s.sql, len(got), g, want)
	}
	if s.ordered() {
		var prev uint64
		for i, r := range got {
			k, err := strconv.ParseUint(r[0], 10, 64)
			if err != nil {
				return fmt.Errorf("%q: row %d key %q: %w", s.sql, i, r[0], err)
			}
			if i > 0 && k < prev {
				return fmt.Errorf("%q: row %d key %d after %d breaks ORDER BY", s.sql, i, k, prev)
			}
			prev = k
		}
	}
	return nil
}
