package dnssec

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

func memoFixture(t *testing.T, alg Algorithm, bits int) (rrs, sigs []dnswire.RR, keys []dnswire.DNSKEY) {
	t.Helper()
	key := mustKey(t, alg, dnswire.DNSKEYFlagZone, bits)
	rrs = testRRset("memo.example")
	return rrs, []dnswire.RR{signSet(t, rrs, key, "example")}, []dnswire.DNSKEY{key.DNSKEY()}
}

func wantStats(t *testing.T, m *VerifyMemo, verifies, hits uint64) {
	t.Helper()
	if got := m.Stats(); got.Verifies != verifies || got.MemoHits != hits {
		t.Fatalf("stats = %+v, want %d verifies, %d memo hits", got, verifies, hits)
	}
}

func TestVerifyMemoRemembersSuccess(t *testing.T) {
	rrs, sigs, keys := memoFixture(t, AlgED25519, 0)
	m := NewVerifyMemo()
	for i := 0; i < 3; i++ {
		if chk := m.CheckRRset(rrs, sigs, keys, testNow, StandardSupport()); chk.Status != SigOK {
			t.Fatalf("pass %d: %v", i, chk.Status)
		}
	}
	wantStats(t, m, 1, 2)

	m.Reset()
	if chk := m.CheckRRset(rrs, sigs, keys, testNow, StandardSupport()); chk.Status != SigOK {
		t.Fatal(chk.Status)
	}
	wantStats(t, m, 2, 2)
}

// A failing signature is verified again every time it is presented: a
// BogusDenial TLD yields EDE 6 on every query, not just the first.
func TestVerifyMemoNeverRemembersFailure(t *testing.T) {
	rrs, sigs, keys := memoFixture(t, AlgED25519, 0)
	bad := sigs[0].Data.(dnswire.RRSIG)
	bad.Signature = append([]byte(nil), bad.Signature...)
	bad.Signature[0] ^= 0xFF
	badSigs := []dnswire.RR{{Name: sigs[0].Name, Class: sigs[0].Class, TTL: sigs[0].TTL, Data: bad}}

	m := NewVerifyMemo()
	// The good twin is remembered first; the forgery differs only in its
	// signature bytes and must not ride on it.
	if chk := m.CheckRRset(rrs, sigs, keys, testNow, StandardSupport()); chk.Status != SigOK {
		t.Fatal(chk.Status)
	}
	for i := 0; i < 3; i++ {
		if chk := m.CheckRRset(rrs, badSigs, keys, testNow, StandardSupport()); chk.Status != SigCryptoFailed {
			t.Fatalf("pass %d: %v, want crypto-failed", i, chk.Status)
		}
	}
	wantStats(t, m, 4, 0)

	// Same data and signature under another key of the same tag-less shape.
	_, _, otherKeys := memoFixture(t, AlgED25519, 0)
	if err := m.verify(AlgED25519, otherKeys[0].PublicKey, signedData(sigs[0].Data.(dnswire.RRSIG), rrs),
		sigs[0].Data.(dnswire.RRSIG).Signature); err == nil {
		t.Fatal("a remembered signature verified under a different key")
	}
}

// The memo sits below CheckRRset's policy: a remembered signature still
// expires, and still goes unvalidated by a validator that does not implement
// its algorithm or rejects its key size.
func TestVerifyMemoPolicyEvaluatedEveryUse(t *testing.T) {
	m := NewVerifyMemo()
	rrs, sigs, keys := memoFixture(t, AlgED25519, 0)
	if chk := m.CheckRRset(rrs, sigs, keys, testNow, StandardSupport()); chk.Status != SigOK {
		t.Fatal(chk.Status)
	}
	if chk := m.CheckRRset(rrs, sigs, keys, testExpiration+1, StandardSupport()); chk.Status != SigExpired {
		t.Errorf("remembered signature past expiration: %v, want expired", chk.Status)
	}
	if chk := m.CheckRRset(rrs, sigs, keys, testInception-1, StandardSupport()); chk.Status != SigNotYetValid {
		t.Errorf("remembered signature before inception: %v, want not-yet-valid", chk.Status)
	}
	noEd := StandardSupport()
	noEd.Algorithms = map[Algorithm]bool{AlgRSASHA256: true}
	if chk := m.CheckRRset(rrs, sigs, keys, testNow, noEd); chk.Status != SigUnsupportedAlg {
		t.Errorf("remembered signature, algorithm unsupported: %v", chk.Status)
	}
	notZone := []dnswire.DNSKEY{keys[0]}
	notZone[0].Flags = 0
	if chk := m.CheckRRset(rrs, sigs, notZone, testNow, StandardSupport()); chk.Status != SigNoMatchingKey {
		t.Errorf("remembered signature, key lost its zone bit: %v", chk.Status)
	}

	rsaRRs, rsaSigs, rsaKeys := memoFixture(t, AlgRSASHA256, 512)
	lax := StandardSupport()
	lax.MinRSABits = 0
	if chk := m.CheckRRset(rsaRRs, rsaSigs, rsaKeys, testNow, lax); chk.Status != SigOK {
		t.Fatal(chk.Status)
	}
	strict := lax
	strict.MinRSABits = 1024
	if chk := m.CheckRRset(rsaRRs, rsaSigs, rsaKeys, testNow, strict); chk.Status != SigUnsupportedAlg {
		t.Errorf("remembered 512-bit RSA signature under a 1024-bit floor: %v", chk.Status)
	}
	wantStats(t, m, 2, 0)
}

// standinTuple is a cheap, distinct, verifying tuple per i (HMAC stand-in
// algorithm), so the scan-resistance test can afford tens of thousands.
func standinTuple(pub []byte, i int) (data, sig []byte) {
	data = binary.BigEndian.AppendUint64([]byte("one-shot:"), uint64(i))
	return data, standinMAC(AlgECCGOST, pub, data)
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// The memo is bounded by what it holds, not by its struct: after six times
// its capacity in distinct tuples it holds exactly memoCapacity (16,384)
// signatures, and their live heap stays under 2 MiB: about 110 bytes a
// signature for the 32-byte digest, the map slot and the map's spare room.
func TestVerifyMemoFixedSize(t *testing.T) {
	pub := make([]byte, 32)
	before := liveHeap()
	m := NewVerifyMemo()
	for i := 0; i < 6*memoCapacity; i++ {
		data, sig := standinTuple(pub, i)
		if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.verified.Len(); n != memoCapacity {
		t.Errorf("the memo holds %d signatures after %d distinct ones, want %d", n, 6*memoCapacity, memoCapacity)
	}
	live := liveHeap() - before
	runtime.KeepAlive(m)
	t.Logf("live heap at capacity: %d B (%.2f MiB, %.0f B a signature)", live, float64(live)/(1<<20), float64(live)/memoCapacity)
	if live > 2<<20 {
		t.Errorf("the memo's live heap at capacity is %d B, want at most 2 MiB", live)
	}
}

// A memo hit costs no allocation: the key is hashed from a stack buffer and
// looked up by value.
func TestVerifyMemoHitAllocs(t *testing.T) {
	pub := make([]byte, 32)
	data, sig := standinTuple(pub, 1)
	m := NewVerifyMemo()
	if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a memo hit makes %.1f allocations, want 0", allocs)
	}
	wantStats(t, m, 1, 101)
}

// Signatures seen once must not keep the ones every resolution uses out of
// the memo. Hot entries are touched between bursts of one-shot entries, as a
// TLD's DNSKEY and opt-out NSEC3 signatures are between signed domains and
// per-child NSEC proofs; over one-shot traffic six times the memo's capacity
// almost every hot use is still a hit, and an entry that was displaced is
// back after a single verification.
func TestVerifyMemoOneShotsDoNotFlushHotEntries(t *testing.T) {
	pub := make([]byte, 32)
	m := NewVerifyMemo()
	touchHot := func() (verified uint64) {
		before := m.Stats().Verifies
		for i := 0; i < 500; i++ {
			data, sig := standinTuple(pub, -1-i)
			if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
				t.Fatal(err)
			}
		}
		return m.Stats().Verifies - before
	}
	touchHot()
	touchHot() // every hot entry has been read since it was stored

	const rounds, burst = 100, 1000
	var hotUses, hotVerifies uint64
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			data, sig := standinTuple(pub, r*burst+i)
			if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
				t.Fatal(err)
			}
		}
		hotVerifies += touchHot()
		hotUses += 500
	}
	if rounds*burst < 6*memoCapacity {
		t.Fatal("the flood is smaller than intended")
	}
	t.Logf("%d of %d hot uses verified again", hotVerifies, hotUses)
	if hotVerifies*50 > hotUses {
		t.Errorf("%d of %d hot uses had to verify again under one-shot traffic, want under 2%%", hotVerifies, hotUses)
	}
	if again := touchHot(); again != 0 {
		t.Errorf("%d hot entries still missing one use after they were displaced", again)
	}
}

func TestVerifyMemoConcurrent(t *testing.T) {
	rrs, sigs, keys := memoFixture(t, AlgED25519, 0)
	pub := make([]byte, 32)
	m := NewVerifyMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if chk := m.CheckRRset(rrs, sigs, keys, testNow, StandardSupport()); chk.Status != SigOK {
					t.Errorf("goroutine %d: %v", g, chk.Status)
					return
				}
				data, sig := standinTuple(pub, g*1000+i)
				if err := m.verify(AlgECCGOST, pub, data, sig); err != nil {
					t.Error(err)
					return
				}
				if i == 250 && g == 0 {
					m.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := m.Stats(); s.Verifies+s.MemoHits != 8*500*2 {
		t.Errorf("stats %+v do not add up to %d checks", s, 8*500*2)
	}
}

func BenchmarkCheckRRsetMemoHit(b *testing.B) {
	key, err := GenerateKey(AlgED25519, dnswire.DNSKEYFlagZone, 0)
	if err != nil {
		b.Fatal(err)
	}
	rrs := testRRset("memo.example")
	sig, err := SignRRset(rrs, key, dnswire.MustName("example"), testInception, testExpiration)
	if err != nil {
		b.Fatal(err)
	}
	sigs, keys, sup := []dnswire.RR{sig}, []dnswire.DNSKEY{key.DNSKEY()}, StandardSupport()
	m := NewVerifyMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chk := m.CheckRRset(rrs, sigs, keys, testNow, sup); chk.Status != SigOK {
			b.Fatal(chk.Status)
		}
	}
}
