package crypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestCipher(t *testing.T) *Cipher {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadKeyLength(t *testing.T) {
	if _, err := New(make([]byte, 16)); err == nil {
		t.Fatal("expected error for 16-byte master key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	c := newTestCipher(t)
	f := func(pt []byte) bool {
		sealed := make([]byte, SealedLen(len(pt)))
		c.Seal(sealed, pt)
		out := make([]byte, len(pt))
		if err := c.Open(out, sealed); err != nil {
			return false
		}
		return bytes.Equal(out, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSealIsProbabilistic(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("the same plaintext")
	a := make([]byte, SealedLen(len(pt)))
	b := make([]byte, SealedLen(len(pt)))
	c.Seal(a, pt)
	c.Seal(b, pt)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of equal plaintext produced equal ciphertexts")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("secret entry")
	sealed := make([]byte, SealedLen(len(pt)))
	c.Seal(sealed, pt)
	out := make([]byte, len(pt))
	// One byte each of the nonce, the body and the tag.
	for _, pos := range []int{0, 16, len(sealed) - 1} {
		mut := append([]byte(nil), sealed...)
		mut[pos] ^= 0x01
		if err := c.Open(out, mut); err != ErrAuth {
			t.Fatalf("tamper at %d: err = %v, want ErrAuth", pos, err)
		}
	}
}

func TestOpenTooShort(t *testing.T) {
	c := newTestCipher(t)
	if err := c.Open(nil, make([]byte, Overhead-1)); err == nil {
		t.Fatal("expected error for truncated ciphertext")
	}
}

func TestNewRandomDistinctKeys(t *testing.T) {
	_, k1, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("NewRandom returned identical keys")
	}
	if len(k1) != 32 {
		t.Fatalf("key length = %d, want 32", len(k1))
	}
}

func TestCiphersWithDifferentKeysIncompatible(t *testing.T) {
	c1 := newTestCipher(t)
	c2, _, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("cross-key")
	sealed := make([]byte, SealedLen(len(pt)))
	c1.Seal(sealed, pt)
	out := make([]byte, len(pt))
	if err := c2.Open(out, sealed); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestSealedLen(t *testing.T) {
	if SealedLen(0) != Overhead {
		t.Fatalf("SealedLen(0) = %d, want %d", SealedLen(0), Overhead)
	}
	if SealedLen(40) != 40+Overhead {
		t.Fatalf("SealedLen(40) = %d", SealedLen(40))
	}
}

// refOpen is a reference Open built directly on the standard library's
// AES-GCM with a 16-byte nonce, keyed the way New keys it. It pins
// Seal's wire format: nonce ‖ GCM ciphertext ‖ GCM tag, under AES-128
// on the first 16 bytes of the master key.
func refOpen(t *testing.T, master, sealed []byte) ([]byte, error) {
	t.Helper()
	block, err := aes.NewCipher(master[:16])
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCMWithNonceSize(block, 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := aead.Open(nil, sealed[:16], sealed[16:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

func TestSealMatchesReferenceConstruction(t *testing.T) {
	master := make([]byte, 32)
	for i := range master {
		master[i] = byte(i*13 + 5)
	}
	c, err := New(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 64, 72, 100, 1152} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i)
		}
		sealed := make([]byte, SealedLen(n))
		c.Seal(sealed, pt)
		out, err := refOpen(t, master, sealed)
		if err != nil {
			t.Fatalf("n=%d: reference open rejected Seal output: %v", n, err)
		}
		if !bytes.Equal(out, pt) {
			t.Fatalf("n=%d: reference open decrypted wrong plaintext", n)
		}

		// The same holds for every record of a SealRange run, whose
		// nonces are the Cipher's prefix ‖ consecutive counters.
		if n == 0 {
			continue // SealRange needs a positive record size
		}
		const k = 3
		rec := SealedLen(n)
		run := make([]byte, k*rec)
		c.SealRange(run, bytes.Repeat(pt, k), n)
		first := binary.BigEndian.Uint64(run[8:16])
		for r := 0; r < k; r++ {
			nonce := run[r*rec : r*rec+16]
			if !bytes.Equal(nonce[:8], sealed[:8]) || binary.BigEndian.Uint64(nonce[8:]) != first+uint64(r) {
				t.Fatalf("n=%d record %d: nonce %x is not prefix ‖ counter %d", n, r, nonce, first+uint64(r))
			}
			out, err := refOpen(t, master, run[r*rec:(r+1)*rec])
			if err != nil {
				t.Fatalf("n=%d record %d: reference open rejected SealRange output: %v", n, r, err)
			}
			if !bytes.Equal(out, pt) {
				t.Fatalf("n=%d record %d: reference open decrypted wrong plaintext", n, r)
			}
		}
	}
}

func TestSealRangeOpenRangeRoundTrip(t *testing.T) {
	c := newTestCipher(t)
	for _, tc := range []struct{ k, ptLen int }{
		{0, 8}, {1, 72}, {3, 1}, {5, 72}, {16, 72}, {7, 1152}, {4, 16}, {2, 15},
	} {
		plain := make([]byte, tc.k*tc.ptLen)
		for i := range plain {
			plain[i] = byte(i * 31)
		}
		sealed := make([]byte, tc.k*SealedLen(tc.ptLen))
		c.SealRange(sealed, plain, tc.ptLen)
		out := make([]byte, len(plain))
		if err := c.OpenRange(out, sealed, tc.ptLen); err != nil {
			t.Fatalf("k=%d ptLen=%d: %v", tc.k, tc.ptLen, err)
		}
		if !bytes.Equal(out, plain) {
			t.Fatalf("k=%d ptLen=%d: round trip corrupted plaintext", tc.k, tc.ptLen)
		}
	}
}

func TestSealRangeRecordsOpenIndividually(t *testing.T) {
	c := newTestCipher(t)
	const k, ptLen = 6, 40
	plain := make([]byte, k*ptLen)
	for i := range plain {
		plain[i] = byte(i)
	}
	sealed := make([]byte, k*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	recLen := SealedLen(ptLen)
	for r := 0; r < k; r++ {
		out := make([]byte, ptLen)
		if err := c.Open(out, sealed[r*recLen:(r+1)*recLen]); err != nil {
			t.Fatalf("record %d: %v", r, err)
		}
		if !bytes.Equal(out, plain[r*ptLen:(r+1)*ptLen]) {
			t.Fatalf("record %d decrypted wrong", r)
		}
	}
}

func TestOpenRangeDetectsTamperedRecord(t *testing.T) {
	c := newTestCipher(t)
	const k, ptLen = 4, 72
	plain := make([]byte, k*ptLen)
	sealed := make([]byte, k*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	sealed[2*SealedLen(ptLen)+20] ^= 0x80 // inside record 2's body
	err := c.OpenRange(make([]byte, len(plain)), sealed, ptLen)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want wrapped ErrAuth", err)
	}
	if want := "record 2 of 4"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not name the record (%q)", err, want)
	}
}

// TestNonceUniqueAcrossConcurrentSealRange hammers one Cipher from many
// goroutines, mixing SealRange and Seal, and asserts that every sealed
// record carries a distinct nonce — the property GCM security rests on.
// Run under -race it also exercises the atomic reservation path for
// data races.
func TestNonceUniqueAcrossConcurrentSealRange(t *testing.T) {
	c := newTestCipher(t)
	const (
		goroutines = 8
		ranges     = 50
		k          = 16
		ptLen      = 72
	)
	recLen := SealedLen(ptLen)
	out := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plain := make([]byte, k*ptLen)
			buf := make([]byte, 0, ranges*(k+1)*recLen)
			for r := 0; r < ranges; r++ {
				sealed := make([]byte, k*recLen)
				c.SealRange(sealed, plain, ptLen)
				buf = append(buf, sealed...)
				one := make([]byte, recLen)
				c.Seal(one, plain[:ptLen])
				buf = append(buf, one...)
			}
			out[g] = buf
		}(g)
	}
	wg.Wait()
	seen := make(map[[16]byte]bool)
	for _, buf := range out {
		for off := 0; off+recLen <= len(buf); off += recLen {
			var nonce [16]byte
			copy(nonce[:], buf[off:off+16])
			if seen[nonce] {
				t.Fatal("duplicate nonce across concurrent Seal/SealRange calls")
			}
			seen[nonce] = true
		}
	}
	if want := goroutines * ranges * (k + 1); len(seen) != want {
		t.Fatalf("collected %d nonces, want %d", len(seen), want)
	}
}

// The acceptance bar of the zero-allocation rework: the hot sealing
// operations must not allocate in steady state.
func TestSealedPathAllocFree(t *testing.T) {
	c := newTestCipher(t)
	const k, ptLen = 64, 72
	plain := make([]byte, k*ptLen)
	sealed := make([]byte, k*SealedLen(ptLen))
	one := make([]byte, SealedLen(ptLen))
	out := make([]byte, ptLen)
	c.SealRange(sealed, plain, ptLen)
	c.Seal(one, plain[:ptLen])
	checks := []struct {
		name string
		fn   func()
	}{
		{"Seal", func() { c.Seal(one, plain[:ptLen]) }},
		{"Open", func() {
			if err := c.Open(out, one); err != nil {
				t.Fatal(err)
			}
		}},
		{"SealRange", func() { c.SealRange(sealed, plain, ptLen) }},
		{"OpenRange", func() {
			if err := c.OpenRange(plain, sealed, ptLen); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range checks {
		if avg := testing.AllocsPerRun(50, tc.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}
}

func BenchmarkSeal64(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	pt := make([]byte, 64)
	sealed := make([]byte, SealedLen(64))
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		c.Seal(sealed, pt)
	}
}

// The range benchmarks use 72-byte records (the width of one encoded
// table entry) in runs of 64, the shape of one sorting-round chunk.
const benchRangeRecords = 64

func BenchmarkSealRange(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	const ptLen = 72
	plain := make([]byte, benchRangeRecords*ptLen)
	sealed := make([]byte, benchRangeRecords*SealedLen(ptLen))
	b.SetBytes(int64(len(plain)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SealRange(sealed, plain, ptLen)
	}
}

func BenchmarkOpenRange(b *testing.B) {
	key := make([]byte, 32)
	c, _ := New(key)
	const ptLen = 72
	plain := make([]byte, benchRangeRecords*ptLen)
	sealed := make([]byte, benchRangeRecords*SealedLen(ptLen))
	c.SealRange(sealed, plain, ptLen)
	b.SetBytes(int64(len(plain)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.OpenRange(plain, sealed, ptLen); err != nil {
			b.Fatal(err)
		}
	}
}
