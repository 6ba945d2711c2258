// Package crypto simulates the probabilistic encryption layer that the
// paper assumes for public memory (§3.1, §3.5).
//
// The adversary sees ciphertexts only; because encryption is
// probabilistic, a dummy write-back of an unchanged entry is
// indistinguishable from a real update. The join algorithm itself never
// depends on this layer for obliviousness — its access pattern is already
// input-independent — but a credible deployment stores entries encrypted,
// and the evaluation's encrypted variant exercises this code path.
//
// Records are sealed with the standard library's AES-128-GCM, keyed by
// the first 16 bytes of the master key, so tampering by the untrusted
// server is detected. A sealed record is
//
//	nonce (16 bytes) ‖ ciphertext ‖ GCM tag (16 bytes)
//
// # Nonces
//
// GCM needs every nonce used under one key to be unique: a repeated
// nonce leaks the XOR of two plaintexts and, worse, the GHASH
// authentication key, after which the server can forge records. Each
// Cipher draws a random 64-bit prefix at construction and then numbers
// the records it seals with an atomic counter, so the nonce of a record
// is
//
//	prefix ‖ big-endian64(counter)
//
// Counter values handed to different seals are disjoint by construction,
// under any degree of concurrency, so one Cipher never repeats a nonce
// short of sealing 2^64 records. Distinct Ciphers over the same key — the
// WAL reopens its data directory's key on every process start — repeat a
// nonce only if their random prefixes collide. That is why the nonce is
// 16 bytes rather than GCM's customary 12: a 12-byte nonce would leave a
// 32-bit prefix, which collides within birthday range (about 2^16) of
// the number of reopens; a 64-bit prefix pushes that to about 2^32.
// A nonce that is not 12 bytes is compressed through GHASH into GCM's
// initial counter block, so distinct nonces could still share counter
// blocks, but only with probability negligible at any record count this
// system will seal.
//
// # Batch sealing
//
// SealRange and OpenRange process a contiguous run of fixed-width
// records with one counter reservation for the whole run. GCM seals and
// opens in place in the caller's buffers, so in steady state Seal, Open,
// SealRange and OpenRange perform no heap allocation at all.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	nonceSize = 16
	tagSize   = 16
)

// Overhead is the number of bytes added to each sealed plaintext:
// a 16-byte nonce and a 16-byte GCM tag.
const Overhead = nonceSize + tagSize

// ErrAuth is returned when a ciphertext fails authentication.
var ErrAuth = errors.New("crypto: ciphertext authentication failed")

// Cipher seals and opens fixed-size entries. All methods are safe for
// concurrent use: nonce reservation is a single atomic add, and the
// AEAD itself is stateless.
type Cipher struct {
	aead   cipher.AEAD
	prefix [8]byte       // random per-Cipher nonce prefix
	ctr    atomic.Uint64 // next unclaimed record counter
}

// New creates a Cipher from a 32-byte master key; the first 16 bytes key
// AES-128-GCM. The nonce prefix is drawn fresh from crypto/rand, so two
// Ciphers over the same master key still seal under distinct nonce
// sequences.
func New(master []byte) (*Cipher, error) {
	if len(master) != 32 {
		return nil, fmt.Errorf("crypto: master key must be 32 bytes, got %d", len(master))
	}
	block, err := aes.NewCipher(master[:16])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCMWithNonceSize(block, nonceSize)
	if err != nil {
		return nil, err
	}
	c := &Cipher{aead: aead}
	if _, err := rand.Read(c.prefix[:]); err != nil {
		return nil, fmt.Errorf("crypto: nonce prefix: %w", err)
	}
	return c, nil
}

// NewRandom creates a Cipher with a fresh random master key, returning
// the key so a client could in principle re-derive the cipher.
func NewRandom() (*Cipher, []byte, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, nil, err
	}
	c, err := New(key)
	if err != nil {
		return nil, nil, err
	}
	return c, key, nil
}

// SealedLen returns the ciphertext length for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// reserve claims n record counters and returns the first.
func (c *Cipher) reserve(n uint64) uint64 { return c.ctr.Add(n) - n }

// sealAt seals plaintext into dst under record counter ctr. dst must be
// SealedLen(len(plaintext)) bytes and must not overlap plaintext.
func (c *Cipher) sealAt(dst, plaintext []byte, ctr uint64) {
	nonce := dst[:nonceSize]
	copy(nonce, c.prefix[:])
	binary.BigEndian.PutUint64(nonce[8:], ctr)
	c.aead.Seal(dst[nonceSize:nonceSize], nonce, plaintext, nil)
}

// open authenticates and decrypts one sealed record whose lengths have
// already been validated.
func (c *Cipher) open(dst, sealed []byte) error {
	if _, err := c.aead.Open(dst[:0], sealed[:nonceSize], sealed[nonceSize:], nil); err != nil {
		return ErrAuth
	}
	return nil
}

// Seal encrypts plaintext under a fresh counter nonce and appends the
// GCM tag. dst must be SealedLen(len(plaintext)) bytes; Seal panics
// otherwise (entry sizes are public constants, so a mismatch is a
// programming error, not data-dependent behaviour).
func (c *Cipher) Seal(dst, plaintext []byte) {
	if len(dst) != SealedLen(len(plaintext)) {
		panic(fmt.Sprintf("crypto: Seal dst %d bytes, want %d", len(dst), SealedLen(len(plaintext))))
	}
	c.sealAt(dst, plaintext, c.reserve(1))
}

// Open authenticates and decrypts a ciphertext produced by Seal into dst,
// which must be len(sealed)-Overhead bytes. It returns ErrAuth when the
// tag does not verify.
func (c *Cipher) Open(dst, sealed []byte) error {
	if len(sealed) < Overhead {
		return fmt.Errorf("crypto: sealed entry too short (%d bytes)", len(sealed))
	}
	if len(dst) != len(sealed)-Overhead {
		panic(fmt.Sprintf("crypto: Open dst %d bytes, want %d", len(dst), len(sealed)-Overhead))
	}
	return c.open(dst, sealed)
}

// SealRange seals k = len(plain)/ptLen consecutive fixed-width records:
// record r covers plain[r*ptLen:(r+1)*ptLen] and lands in
// dst[r*SealedLen(ptLen):(r+1)*SealedLen(ptLen)], each under its own
// nonce from a single k-counter reservation (one atomic add for the
// whole range). Every record remains individually openable with Open.
// Lengths must agree exactly; SealRange panics otherwise.
func (c *Cipher) SealRange(dst, plain []byte, ptLen int) {
	if ptLen <= 0 {
		panic("crypto: SealRange record size must be positive")
	}
	if len(plain)%ptLen != 0 {
		panic(fmt.Sprintf("crypto: SealRange plain %d bytes not a multiple of record size %d", len(plain), ptLen))
	}
	k := len(plain) / ptLen
	recLen := SealedLen(ptLen)
	if len(dst) != k*recLen {
		panic(fmt.Sprintf("crypto: SealRange dst %d bytes, want %d", len(dst), k*recLen))
	}
	if k == 0 {
		return
	}
	start := c.reserve(uint64(k))
	for r := 0; r < k; r++ {
		c.sealAt(dst[r*recLen:(r+1)*recLen], plain[r*ptLen:(r+1)*ptLen], start+uint64(r))
	}
}

// OpenRange authenticates and decrypts k = len(sealed)/SealedLen(ptLen)
// consecutive records produced by Seal or SealRange, the inverse layout
// of SealRange. It stops at the first record that fails authentication,
// returning an error wrapping ErrAuth that names the record index.
// Lengths must agree exactly; OpenRange panics otherwise.
func (c *Cipher) OpenRange(dst, sealed []byte, ptLen int) error {
	if ptLen <= 0 {
		panic("crypto: OpenRange record size must be positive")
	}
	recLen := SealedLen(ptLen)
	if len(sealed)%recLen != 0 {
		panic(fmt.Sprintf("crypto: OpenRange sealed %d bytes not a multiple of record size %d", len(sealed), recLen))
	}
	k := len(sealed) / recLen
	if len(dst) != k*ptLen {
		panic(fmt.Sprintf("crypto: OpenRange dst %d bytes, want %d", len(dst), k*ptLen))
	}
	for r := 0; r < k; r++ {
		if err := c.open(dst[r*ptLen:(r+1)*ptLen], sealed[r*recLen:(r+1)*recLen]); err != nil {
			return fmt.Errorf("crypto: record %d of %d: %w", r, k, err)
		}
	}
	return nil
}
