package frontend

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
)

// wireQueryMsg builds a client query in one of the three EDNS classes the
// wire cache distinguishes: no EDNS, EDNS without DO, EDNS with DO.
func wireQueryMsg(id uint16, name string, cd bool, edns, do bool) *dnswire.Message {
	m := &dnswire.Message{
		ID:               id,
		RecursionDesired: true,
		CheckingDisabled: cd,
		Question:         []dnswire.Question{{Name: dnswire.MustName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	if edns {
		m.OPT = &dnswire.OPT{UDPSize: 1232, DO: do}
	}
	return m
}

// dnssecAnswer is an upstream answer carrying an RRSIG, so the DO/no-DO
// variants of the reply genuinely differ.
func dnssecAnswer(qname dnswire.Name, ttl uint32) *dnswire.Message {
	m := positive(qname, ttl)
	m.AuthenticData = true
	m.Answer = append(m.Answer, dnswire.RR{
		Name: qname, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.RRSIG{
			TypeCovered: dnswire.TypeA, Algorithm: 13, Labels: 2, OriginalTTL: ttl,
			Expiration: 1700000000, Inception: 1690000000, KeyTag: 12345,
			SignerName: dnswire.MustName("example."), Signature: []byte{1, 2, 3, 4},
		},
	})
	return m
}

// serveBoth primes f (if needed), then answers q via the slow path and the
// wire fast path at the same instant, returning both packed responses.
func serveBoth(t *testing.T, f *Frontend, q *dnswire.Message, limit int) (slow []byte, fast []byte, ok bool) {
	t.Helper()
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatalf("HandleDNS: %v", err)
	}
	slow, err = resp.AppendPack(nil)
	if err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatalf("Pack query: %v", err)
	}
	wq, scanned := dnswire.ScanQuery(raw)
	if !scanned {
		t.Fatalf("ScanQuery rejected test query")
	}
	fast, ok = f.ServeWire(wq, limit, nil)
	return slow, fast, ok
}

// TestWireHitByteIdentity is the tentpole correctness gate: for every
// upstream answer shape × CD state × EDNS class, and across entry ages
// (including past the original TTL), the wire fast path must produce
// byte-identical responses to the slow path.
func TestWireHitByteIdentity(t *testing.T) {
	answers := map[string]func(dnswire.Name) *dnswire.Message{
		"positive": func(n dnswire.Name) *dnswire.Message { return positive(n, 100) },
		"dnssec":   func(n dnswire.Name) *dnswire.Message { return dnssecAnswer(n, 100) },
		"nxdomain": func(n dnswire.Name) *dnswire.Message { return nxdomain(n, 300) },
		"withEDE": func(n dnswire.Name) *dnswire.Message {
			m := positive(n, 100)
			m.AddEDE(uint16(ede.CodeStaleAnswer), "upstream note")
			return m
		},
		"shortTTL": func(n dnswire.Name) *dnswire.Message { return positive(n, 5) },
	}
	classes := []struct {
		name     string
		edns, do bool
	}{
		{"noedns", false, false},
		{"edns", true, false},
		{"edns+do", true, true},
	}
	for aname, build := range answers {
		for _, cd := range []bool{false, true} {
			for _, cl := range classes {
				name := aname + "/" + cl.name
				if cd {
					name += "/cd"
				}
				t.Run(name, func(t *testing.T) {
					clock := newClock()
					up := &stubUpstream{}
					up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
						return build(qname), nil
					})
					f := New(up, Config{Now: clock.Now})

					q := func(id uint16) *dnswire.Message { return wireQueryMsg(id, "www.example.", cd, cl.edns, cl.do) }
					// Prime: the miss both fills the cache and captures the
					// wire variant for this EDNS class.
					if _, err := f.HandleDNS(context.Background(), q(1)); err != nil {
						t.Fatal(err)
					}
					// Cumulative ages 0s, 3s, 7s: same-second hits, partial
					// decay, and (for the 5s-TTL case) expiry + refetch, so
					// the recapture path is byte-identical too.
					for _, age := range []time.Duration{0, 3 * time.Second, 4 * time.Second} {
						clock.Advance(age)
						slow, fast, ok := serveBoth(t, f, q(0x4242), 0xFFFF)
						if !ok {
							t.Fatalf("age %v: wire fast path declined a fresh compatible hit", age)
						}
						if !bytes.Equal(slow, fast) {
							t.Errorf("age %v: wire fast path diverged from slow path\nslow: %x\nfast: %x", age, slow, fast)
						}
					}
				})
			}
		}
	}
}

// TestWireHitPatchesIDAndRD checks the two header patches: a wire hit must
// carry the asking client's ID and RD bit, not the capturing client's.
func TestWireHitPatchesIDAndRD(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, "www.example.", false, true, true)); err != nil {
		t.Fatal(err)
	}

	q := wireQueryMsg(0xABCD, "www.example.", false, true, true)
	q.RecursionDesired = false
	raw, _ := q.Pack()
	wq, ok := dnswire.ScanQuery(raw)
	if !ok {
		t.Fatal("scan rejected")
	}
	out, ok := f.ServeWire(wq, 0xFFFF, nil)
	if !ok {
		t.Fatal("wire fast path declined")
	}
	resp, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatalf("Unpack(wire response): %v", err)
	}
	if resp.ID != 0xABCD {
		t.Errorf("ID = %#x, want 0xABCD", resp.ID)
	}
	if resp.RecursionDesired {
		t.Errorf("RD = true, want false (capturing client had RD set)")
	}
}

// TestWireFallsBack enumerates the declines: miss, stale entry, an error
// image whose countdown no longer matches, wrong class, oversized reply, and
// the uncaptured EDNS class.
func TestWireFallsBack(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, "www.example.", false, true, true)); err != nil {
		t.Fatal(err)
	}
	scan := func(m *dnswire.Message) dnswire.WireQuery {
		raw, _ := m.Pack()
		wq, ok := dnswire.ScanQuery(raw)
		if !ok {
			t.Fatal("scan rejected")
		}
		return wq
	}

	if _, ok := f.ServeWire(scan(wireQueryMsg(2, "other.example.", false, true, true)), 0xFFFF, nil); ok {
		t.Error("served a cache miss from the wire path")
	}
	if _, ok := f.ServeWire(scan(wireQueryMsg(2, "www.example.", false, false, false)), 0xFFFF, nil); ok {
		t.Error("served the never-captured no-EDNS class")
	}
	wq := scan(wireQueryMsg(2, "www.example.", false, true, true))
	if _, ok := f.ServeWire(wq, 40, nil); ok {
		t.Error("served a reply larger than the limit (truncation is the slow path's job)")
	}
	wrongClass := wq
	wrongClass.Class = dnswire.ClassCH
	if _, ok := f.ServeWire(wrongClass, 0xFFFF, nil); ok {
		t.Error("served a non-IN class query")
	}
	clock.Advance(101 * time.Second) // past TTL: entry is stale now
	if _, ok := f.ServeWire(wq, 0xFFFF, nil); ok {
		t.Error("served a stale entry from the wire path (stale serves carry EDE 3)")
	}

	// An error image is valid for the second its EDE 13 retry text reads:
	// once the countdown has moved on, the wire path declines.
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, context.DeadlineExceeded
	})
	f2 := New(up, Config{Now: clock.Now, StaleWindow: -1})
	for id := uint16(1); id <= 2; id++ { // the failure, then the hit that captures
		if _, err := f2.HandleDNS(context.Background(), wireQueryMsg(id, "err.example.", false, true, true)); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Second)
	if _, ok := f2.ServeWire(scan(wireQueryMsg(3, "err.example.", false, true, true)), 0xFFFF, nil); ok {
		t.Error("served an error image whose EDE 13 countdown no longer matches")
	}
}

// TestWireCachedErrorMatchesSlowPath pins the error image on a stepped clock
// against a twin frontend that answers everything through HandleDNS. The
// first failure captures nothing; the first cached-error hit captures; a
// wire serve then equals the twin's slow-path answer byte for byte, with the
// asking client's ID and RD. One second on, an EDNS image declines and the
// slow path recaptures (a plain one carries no countdown and keeps serving);
// past ErrorTTL nothing is wire-served. The two frontends' counters and EDE
// emissions agree but for WireHits.
func TestWireCachedErrorMatchesSlowPath(t *testing.T) {
	for _, cl := range []struct {
		name     string
		edns, do bool
	}{
		{"noedns", false, false},
		{"edns", true, false},
		{"edns+do", true, true},
	} {
		t.Run(cl.name, func(t *testing.T) {
			clock := newClock()
			up := &stubUpstream{}
			up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
				return servfail(qname), nil
			})
			cfg := Config{Now: clock.Now, ErrorTTL: 5 * time.Second, StaleWindow: -1}
			f, twin := New(up, cfg), New(up, cfg)
			q := func(id uint16, rd bool) *dnswire.Message {
				m := wireQueryMsg(id, "fail.example.", false, cl.edns, cl.do)
				m.RecursionDesired = rd
				return m
			}
			slow := func(fe *Frontend, m *dnswire.Message) []byte {
				t.Helper()
				resp, err := fe.HandleDNS(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				out, err := resp.AppendPack(nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			// both puts one client query through the slow path of both
			// frontends, as a declined wire serve does.
			var id uint16
			both := func() {
				t.Helper()
				id++
				slow(f, q(id, true))
				slow(twin, q(id, true))
			}
			raw, _ := q(0x5151, false).Pack()
			wq, ok := dnswire.ScanQuery(raw)
			if !ok {
				t.Fatal("scan rejected")
			}
			wire := func(step string, want bool) {
				t.Helper()
				got, ok := f.ServeWire(wq, 0xFFFF, nil)
				if ok != want {
					t.Fatalf("%s: wire path served=%t, want %t", step, ok, want)
				}
				if !ok {
					return
				}
				if want := slow(twin, q(0x5151, false)); !bytes.Equal(got, want) {
					t.Fatalf("%s: wire serve differs from the slow path\nslow: %x\nwire: %x", step, want, got)
				}
			}

			both() // the first failure: no EDE 13, so no image
			wire("after the first failure", false)
			both() // the first cached-error hit captures
			wire("same second", true)
			wire("same second, again", true)
			clock.Advance(time.Second)
			if cl.edns {
				wire("countdown ticked", false)
				both() // recaptures
			}
			wire("next second", true)
			clock.Advance(5 * time.Second)
			wire("past ErrorTTL", false)

			got, want := f.Metrics().Snapshot(), twin.Metrics().Snapshot()
			if got.WireHits != 3 {
				t.Errorf("wire hits = %d, want 3", got.WireHits)
			}
			got.WireHits = 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters differ from the slow-path twin's\nwire: %+v\nslow: %+v", got, want)
			}
			if cl.edns && want.EDECounts[uint16(ede.CodeCachedError)] == 0 {
				t.Error("twin emitted no EDE 13: the comparison is vacuous")
			}
		})
	}
}

// TestWireHitAllocGate is the CI alloc gate: a full fast-path serve —
// scanning the raw query plus ServeWire into a ready buffer — stays within
// 2 allocations (the qname cache-key string is the only mandatory one). A
// wire-served cached error allocates no more than a positive hit: its
// countdown check is arithmetic, not a formatted EXTRA-TEXT.
func TestWireHitAllocGate(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		if qname == dnswire.MustName("fail.example.") {
			return servfail(qname), nil
		}
		return dnssecAnswer(qname, 300), nil
	})
	f := New(up, Config{Now: clock.Now})
	names := []string{"www.example.", "fail.example."}
	for _, name := range names {
		if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, name, false, true, true)); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(2 * time.Second) // force the TTL patch loop to run
	allocs := make([]float64, len(names))
	for i, name := range names {
		// For the failure, the cached-error hit that captures its image at
		// the current countdown.
		if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, name, false, true, true)); err != nil {
			t.Fatal(err)
		}
		raw, _ := wireQueryMsg(0x7777, name, false, true, true).Pack()
		dst := make([]byte, 0, 4096)
		allocs[i] = testing.AllocsPerRun(500, func() {
			wq, ok := dnswire.ScanQuery(raw)
			if !ok {
				t.Fatal("scan rejected")
			}
			if _, ok := f.ServeWire(wq, 0xFFFF, dst); !ok {
				t.Fatalf("%s: wire fast path declined", name)
			}
		})
	}
	if allocs[0] > 2 {
		t.Errorf("wire hit path allocates %.1f times per op, want <= 2", allocs[0])
	}
	if allocs[1] > allocs[0] {
		t.Errorf("an error wire hit allocates %.1f times per op, a positive one %.1f", allocs[1], allocs[0])
	}
}

// TestWireHitCountsMetrics checks a wire hit is indistinguishable from a
// slow-path hit in the serving metrics, and additionally counted under
// WireHits and the entry's EDE emissions.
func TestWireHitCountsMetrics(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		m := positive(qname, 100)
		m.AddEDE(uint16(ede.CodeStaleAnswer), "carried through")
		return m, nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, "www.example.", false, true, true)); err != nil {
		t.Fatal(err)
	}
	raw, _ := wireQueryMsg(2, "www.example.", false, true, true).Pack()
	wq, _ := dnswire.ScanQuery(raw)
	if _, ok := f.ServeWire(wq, 0xFFFF, nil); !ok {
		t.Fatal("wire fast path declined")
	}
	snap := f.Metrics().Snapshot()
	if snap.Queries != 2 || snap.Hits != 1 || snap.WireHits != 1 {
		t.Errorf("metrics = %d queries / %d hits / %d wire hits, want 2/1/1",
			snap.Queries, snap.Hits, snap.WireHits)
	}
	if got := snap.EDECounts[uint16(ede.CodeStaleAnswer)]; got != 2 {
		t.Errorf("EDE 3 emissions = %d, want 2 (slow-path fill + wire hit)", got)
	}
}
