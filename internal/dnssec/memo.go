package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ttlmap"
)

// memoCapacity is how many verified signatures a memo remembers.
const memoCapacity = 16384

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
// collides with a verified one. The table is a ttlmap.Map whose entries never
// expire, so its eviction rule is by use alone: an over-full shard evicts the
// probed signature stored or hit longest ago. Signatures seen once (a signed
// domain's own RRsets, per-child NSEC proofs) therefore replace each other
// rather than the ones every resolution uses, and one that does get displaced
// is back after a single verification, newest of any probe that finds it.
//
// A nil *VerifyMemo verifies without remembering or counting.
type VerifyMemo struct {
	verifies atomic.Uint64
	hits     atomic.Uint64
	verified *ttlmap.Map[[sha256.Size]byte, struct{}]
}

// NewVerifyMemo returns an empty memo.
func NewVerifyMemo() *VerifyMemo {
	return &VerifyMemo{verified: ttlmap.New[[sha256.Size]byte, struct{}](memoCapacity, 0, digestHash)}
}

// digestHash spreads memo keys over the map's shards: the digest is already
// uniform, so its first eight bytes will do.
func digestHash(k [sha256.Size]byte) uint64 { return binary.LittleEndian.Uint64(k[:8]) }

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
func (m *VerifyMemo) Reset() { m.verified.Flush() }

// verify is Verify behind the memo.
func (m *VerifyMemo) verify(alg Algorithm, pubWire, data, sig []byte) error {
	if m == nil {
		return Verify(alg, pubWire, data, sig)
	}
	key := memoKey(alg, pubWire, data, sig)
	if _, _, hit := m.verified.Get(key, 0); hit {
		m.hits.Add(1)
		return nil
	}
	m.verifies.Add(1)
	if err := Verify(alg, pubWire, data, sig); err != nil {
		return err
	}
	m.verified.Put(key, struct{}{}, math.MaxInt64, 0)
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
