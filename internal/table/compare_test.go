package table

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"oblivjoin/internal/obliv"
)

// adversarialData returns payloads built to break a word-wise
// comparator that gets the word order, the byte order within a word or
// the carry of the unsigned compare wrong: differences at the last byte
// of the high word (7) against the first byte of the low word (8),
// 0x00/0xff saturation, high bits set, and long equal prefixes.
func adversarialData() []Data {
	var out []Data
	var zero, ones Data
	for i := range ones {
		ones[i] = 0xff
	}
	out = append(out, zero, ones)
	for _, pos := range []int{0, 6, 7, 8, 9, 15} {
		for _, v := range []byte{0x01, 0x7f, 0x80, 0xfe, 0xff} {
			d := zero
			d[pos] = v
			out = append(out, d)
			d = ones
			d[pos] = 0xff - v
			out = append(out, d)
		}
	}
	// Equal prefixes up to byte 7, then a high word that loses while the
	// low word wins, and the reverse.
	a, b := MustData("prefix!\x00\xff\xff\xff\xff\xff\xff\xff\xff"), MustData("prefix!\x01\x00\x00\x00\x00\x00\x00\x00\x00")
	out = append(out, a, b, MustData("prefix!"), MustData("prefix!\x00"), MustData("prefix!\x80"))
	return out
}

// randomData draws payloads from a small alphabet so equal prefixes and
// full ties are common.
func randomData(rng *rand.Rand) Data {
	var d Data
	alphabet := []byte{0x00, 0x01, 0x7f, 0x80, 0xff}
	n := rng.Intn(DataLen + 1)
	for i := 0; i < n; i++ {
		d[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return d
}

func checkDataPair(t *testing.T, a, b Data) {
	t.Helper()
	cmp := bytes.Compare(a[:], b[:])
	if got, want := LessData(&a, &b), obliv.Bool(cmp < 0); got != want {
		t.Errorf("LessData(%x, %x) = %d, want %d", a, b, got, want)
	}
	if got, want := EqData(&a, &b), obliv.Bool(cmp == 0); got != want {
		t.Errorf("EqData(%x, %x) = %d, want %d", a, b, got, want)
	}
}

func TestLessDataAdversarial(t *testing.T) {
	ds := adversarialData()
	for _, a := range ds {
		for _, b := range ds {
			checkDataPair(t, a, b)
		}
	}
}

func TestLessDataMatchesBytesCompare(t *testing.T) {
	f := func(a, b Data) bool {
		checkDataPair(t, a, b)
		return !t.Failed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkDataPair(t, randomData(rng), randomData(rng))
	}
}

func TestEqDataMatchesBytesEqual(t *testing.T) {
	f := func(a, b Data) bool {
		return EqData(&a, &b) == obliv.Bool(bytes.Equal(a[:], b[:])) && EqData(&a, &a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondSwapData(t *testing.T) {
	ds := adversarialData()
	for i, a := range ds {
		b := ds[(i*7+3)%len(ds)]
		x, y := a, b
		CondSwapData(0, &x, &y)
		if x != a || y != b {
			t.Fatalf("CondSwapData(0) mutated: %x %x", x, y)
		}
		CondSwapData(1, &x, &y)
		if x != b || y != a {
			t.Fatalf("CondSwapData(1) wrong: %x %x", x, y)
		}
	}
}

func TestCondSwapDataProperty(t *testing.T) {
	f := func(c bool, a, b Data) bool {
		x, y := a, b
		CondSwapData(obliv.Bool(c), &x, &y)
		if c {
			return x == b && y == a
		}
		return x == a && y == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondCopyData(t *testing.T) {
	f := func(c bool, a, b Data) bool {
		dst, src := a, b
		CondCopyData(obliv.Bool(c), &dst, &src)
		want := a
		if c {
			want = b
		}
		return dst == want && src == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCondSwapKeyedPair checks the pair swap against plain assignment.
func TestCondSwapKeyedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a := KeyedPair{J: rng.Uint64(), D1: randomData(rng), D2: randomData(rng)}
		b := KeyedPair{J: rng.Uint64(), D1: randomData(rng), D2: randomData(rng)}
		c := uint64(i & 1)
		x, y := a, b
		CondSwapKeyedPair(c, &x, &y)
		if c == 1 && (x != b || y != a) || c == 0 && (x != a || y != b) {
			t.Fatalf("CondSwapKeyedPair(%d) wrong", c)
		}
	}
}

// refLess is a non-oblivious reference ordering: the first differing
// key decides, with keys compared by Go's own operators and payloads by
// bytes.Compare.
type refKey struct {
	u []uint64
	d []Data
}

func refLess(x, y refKey) bool {
	for i := range x.u {
		if x.u[i] != y.u[i] {
			return x.u[i] < y.u[i]
		}
	}
	for i := range x.d {
		if c := bytes.Compare(x.d[i][:], y.d[i][:]); c != 0 {
			return c < 0
		}
	}
	return false
}

// randomEntry draws an entry with every key from a tiny domain, so ties
// on leading keys are the common case.
func randomEntry(rng *rand.Rand) Entry {
	return Entry{
		J: uint64(rng.Intn(3)), D: randomData(rng), TID: uint64(1 + rng.Intn(2)),
		A1: uint64(rng.Intn(3)), A2: uint64(rng.Intn(3)), F: uint64(rng.Intn(3)),
		II: uint64(rng.Intn(3)), Null: uint64(rng.Intn(2)),
	}
}

func TestEntryComparatorsMatchReference(t *testing.T) {
	comparators := []struct {
		name string
		less func(x, y Entry) uint64
		key  func(e Entry) refKey
	}{
		{"LessJTID", LessJTID, func(e Entry) refKey { return refKey{u: []uint64{e.J, e.TID}} }},
		{"LessTIDJD", LessTIDJD, func(e Entry) refKey { return refKey{u: []uint64{e.TID, e.J}, d: []Data{e.D}} }},
		{"LessJD", LessJD, func(e Entry) refKey { return refKey{u: []uint64{e.J}, d: []Data{e.D}} }},
		{"LessF", LessF, func(e Entry) refKey { return refKey{u: []uint64{e.F}} }},
		{"LessNullF", LessNullF, func(e Entry) refKey { return refKey{u: []uint64{e.Null, e.F}} }},
		{"LessJII", LessJII, func(e Entry) refKey { return refKey{u: []uint64{e.J, e.II}} }},
	}
	rng := rand.New(rand.NewSource(3))
	es := make([]Entry, 300)
	for i := range es {
		es[i] = randomEntry(rng)
	}
	for _, c := range comparators {
		for _, x := range es {
			for _, y := range es {
				if got, want := c.less(x, y), obliv.Bool(refLess(c.key(x), c.key(y))); got != want {
					t.Fatalf("%s(%+v, %+v) = %d, want %d", c.name, x, y, got, want)
				}
			}
		}
	}
}

func TestLessKeyedPairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := make([]KeyedPair, 300)
	for i := range ps {
		ps[i] = KeyedPair{J: uint64(rng.Intn(3)), D1: randomData(rng), D2: randomData(rng)}
	}
	// Adversarial payloads in both positions, under one key.
	for _, d := range adversarialData() {
		ps = append(ps, KeyedPair{J: 1, D1: d, D2: d}, KeyedPair{J: 1, D1: ps[0].D1, D2: d})
	}
	key := func(p KeyedPair) refKey { return refKey{u: []uint64{p.J}, d: []Data{p.D1, p.D2}} }
	for _, x := range ps {
		for _, y := range ps {
			if got, want := LessKeyedPair(x, y), obliv.Bool(refLess(key(x), key(y))); got != want {
				t.Fatalf("LessKeyedPair(%+v, %+v) = %d, want %d", x, y, got, want)
			}
		}
	}
}
