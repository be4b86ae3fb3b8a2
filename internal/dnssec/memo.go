package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Memo geometry: 64 shards × 128 sets × 2 ways × 32-byte digests = 512 KiB
// (plus a reference bit per way), fixed for the life of the memo.
const (
	memoShards = 64
	memoSets   = 128
	memoWays   = 2
)

// VerifyMemo remembers which (algorithm, public key, signature, signed data)
// tuples have verified, so that a signature a validator has already checked —
// a TLD's DNSKEY RRset, an opt-out NSEC3 spanning thousands of unsigned
// delegations — costs one SHA-256 instead of one public-key operation the
// next time it arrives.
//
// It sits beneath CheckRRset's policy: key tag, algorithm and zone-key
// matching, the SupportSet, the RSA size floor and the validity window are
// evaluated on every call, memoised or not, so a remembered signature still
// expires on time. Only successes are remembered; a signature that fails
// costs a real verification every time it is presented.
//
// The key is a SHA-256 over the whole tuple because the bytes come off the
// network: a weaker hash would let an attacker craft a forged signature that
// collides with a verified one. Replacement within a set is second-chance
// (CLOCK): a hit marks its entry referenced, an insert takes the first
// unreferenced way from the hand on and clears the marks it passes. An entry
// hit since the hand last passed it therefore outlives the next insert, so
// signatures seen once (a signed domain's own RRsets, per-child NSEC proofs)
// replace each other rather than the ones every resolution uses, and one that
// does get displaced is back after a single verification.
//
// The zero value is ready to use, and a nil *VerifyMemo verifies without
// remembering or counting.
type VerifyMemo struct {
	verifies atomic.Uint64
	hits     atomic.Uint64
	shards   [memoShards]memoShard
}

type memoShard struct {
	mu   sync.Mutex
	sets [memoSets]memoSet
}

type memoSet struct {
	digest     [memoWays][sha256.Size]byte
	referenced [memoWays]bool
	hand       uint8 // way the next insert examines first
}

// lookup reports whether key is remembered, marking it referenced if so.
func (s *memoSet) lookup(key *[sha256.Size]byte) bool {
	for w := range s.digest {
		if s.digest[w] == *key {
			s.referenced[w] = true
			return true
		}
	}
	return false
}

// insert remembers key in place of the first way, from the hand on, that has
// not been referenced since the hand last passed it.
func (s *memoSet) insert(key *[sha256.Size]byte) {
	w := int(s.hand)
	for i := 0; i < memoWays && s.referenced[w]; i++ {
		s.referenced[w] = false
		w = (w + 1) % memoWays
	}
	s.digest[w] = *key
	s.hand = uint8((w + 1) % memoWays)
}

// VerifyStats counts what a memo's owner paid for signature checks.
type VerifyStats struct {
	// Verifies is the number of cryptographic verifications performed.
	Verifies uint64
	// MemoHits is the number of checks answered from the memo instead.
	MemoHits uint64
}

// Stats returns the memo's cumulative counters.
func (m *VerifyMemo) Stats() VerifyStats {
	return VerifyStats{Verifies: m.verifies.Load(), MemoHits: m.hits.Load()}
}

// Reset forgets every remembered signature. The counters keep running.
func (m *VerifyMemo) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.sets = [memoSets]memoSet{}
		s.mu.Unlock()
	}
}

// verify is Verify behind the memo.
func (m *VerifyMemo) verify(alg Algorithm, pubWire, data, sig []byte) error {
	if m == nil {
		return Verify(alg, pubWire, data, sig)
	}
	key := memoKey(alg, pubWire, data, sig)
	// An empty slot reads as the all-zero digest, so that one digest is never
	// trusted or stored.
	usable := key != [sha256.Size]byte{}
	s := &m.shards[key[0]%memoShards]
	set := &s.sets[key[1]%memoSets]
	if usable {
		s.mu.Lock()
		hit := set.lookup(&key)
		s.mu.Unlock()
		if hit {
			m.hits.Add(1)
			return nil
		}
	}
	m.verifies.Add(1)
	if err := Verify(alg, pubWire, data, sig); err != nil {
		return err
	}
	if usable {
		s.mu.Lock()
		// Another goroutine may have verified and inserted the same tuple
		// meanwhile.
		if !set.lookup(&key) {
			set.insert(&key)
		}
		s.mu.Unlock()
	}
	return nil
}

// memoKey hashes the verification inputs. The public key and signature are
// length-prefixed so no two distinct tuples share an encoding; the signed
// data is last and takes the rest.
func memoKey(alg Algorithm, pubWire, data, sig []byte) [sha256.Size]byte {
	// Ed25519 and ECDSA tuples over a referral-sized RRset fit the stack
	// buffer; longer ones (RSA, big DNSKEY RRsets) spill to the heap.
	buf := make([]byte, 0, 512)
	buf = append(buf, byte(alg))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pubWire)))
	buf = append(buf, pubWire...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(sig)))
	buf = append(buf, sig...)
	buf = append(buf, data...)
	return sha256.Sum256(buf)
}

// verifyRRSIG is VerifyRRSIG behind the memo.
func (m *VerifyMemo) verifyRRSIG(sig dnswire.RRSIG, rrs []dnswire.RR, key dnswire.DNSKEY) error {
	if len(rrs) == 0 {
		return ErrEmptyRRset
	}
	if sig.KeyTag != key.KeyTag() || sig.Algorithm != key.Algorithm {
		return ErrBadSignature
	}
	return m.verify(Algorithm(sig.Algorithm), key.PublicKey, signedData(sig, rrs), sig.Signature)
}
