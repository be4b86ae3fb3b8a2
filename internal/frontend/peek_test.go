package frontend

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
)

// twoReplicas builds a pair of frontends over independent upstreams, each
// peeking the other — the minimal cluster.
func twoReplicas(t *testing.T, clock *fakeClock) (a, b *Frontend, upA, upB *stubUpstream) {
	t.Helper()
	upA, upB = &stubUpstream{}, &stubUpstream{}
	cfg := Config{Now: clock.Now}
	cfgA, cfgB := cfg, cfg
	cfgA.Peek = func(k PeekKey, staleOK bool) (*SharedEntry, bool) { return b.PeekShared(k, staleOK) }
	cfgB.Peek = func(k PeekKey, staleOK bool) (*SharedEntry, bool) { return a.PeekShared(k, staleOK) }
	a = New(upA, cfgA)
	b = New(upB, cfgB)
	return a, b, upA, upB
}

// TestPeekServesPeerEntryWithoutRecursing: a miss on one replica rides the
// peer's fresh entry — one recursion total, answers identical.
func TestPeekServesPeerEntryWithoutRecursing(t *testing.T) {
	clock := newClock()
	a, b, upA, upB := twoReplicas(t, clock)
	upA.set(func(_ context.Context, n dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(n, 300), nil
	})
	upB.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		t.Error("replica B recursed despite A holding a fresh entry")
		return nil, errors.New("unreachable")
	})

	respA, err := a.HandleDNS(context.Background(), query("peek.example."))
	if err != nil {
		t.Fatal(err)
	}
	respB, err := b.HandleDNS(context.Background(), query("peek.example."))
	if err != nil {
		t.Fatal(err)
	}
	if upA.calls.Load() != 1 || upB.calls.Load() != 0 {
		t.Fatalf("recursions: A=%d B=%d, want 1/0", upA.calls.Load(), upB.calls.Load())
	}
	wa, _ := respA.Pack()
	wb, _ := respB.Pack()
	wa[0], wa[1], wb[0], wb[1] = 0, 0, 0, 0
	if string(wa) != string(wb) {
		t.Fatalf("peeked answer differs from the peer's:\nA: %x\nB: %x", wa, wb)
	}
	if b.Metrics().Snapshot().Misses != 0 {
		// The peek hit happens inside fetch, before the miss counter: B's
		// metrics must not claim an upstream miss.
		t.Fatalf("B counted an upstream miss on a peek hit")
	}
	// The absorbed entry now serves B locally (no second peek needed):
	// advance past nothing, query again, still no recursion on B.
	if _, err := b.HandleDNS(context.Background(), query("peek.example.")); err != nil {
		t.Fatal(err)
	}
	if upB.calls.Load() != 0 {
		t.Fatal("B recursed on a locally absorbed entry")
	}
}

// TestPeekSharesErrorEntry: fresh error-cache entries peek across, so a
// takeover replica answers with the same EDE 13 retry countdown.
func TestPeekSharesErrorEntry(t *testing.T) {
	clock := newClock()
	a, b, upA, upB := twoReplicas(t, clock)
	upA.set(func(_ context.Context, n dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return servfail(n), nil
	})
	upB.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		t.Error("replica B recursed despite A's fresh error entry")
		return nil, errors.New("unreachable")
	})

	if _, err := a.HandleDNS(context.Background(), query("err.example.")); err != nil {
		t.Fatal(err)
	}
	resp, err := b.HandleDNS(context.Background(), query("err.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode %v, want SERVFAIL", resp.RCode)
	}
	hasEDE(t, resp, ede.CodeCachedError)
}

// TestPeekStaleRescue: when a replica's own recursion fails and it has no
// local stale data, a peer's expired entry still rescues the answer with
// EDE 3.
func TestPeekStaleRescue(t *testing.T) {
	clock := newClock()
	a, b, upA, upB := twoReplicas(t, clock)
	upA.set(func(_ context.Context, n dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(n, 60), nil
	})
	if _, err := a.HandleDNS(context.Background(), query("stale.example.")); err != nil {
		t.Fatal(err)
	}

	clock.Advance(10 * time.Minute) // A's entry expired, inside the stale window
	upA.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, errors.New("backend blackout")
	})
	upB.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, errors.New("backend blackout")
	})

	resp, err := b.HandleDNS(context.Background(), query("stale.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("stale rescue failed: rcode=%v answers=%d", resp.RCode, len(resp.Answer))
	}
	hasEDE(t, resp, ede.CodeStaleAnswer)
}

// TestPeekKeepsWireImages: a peeked entry carries the peer's pre-packed
// wire image, so after one peek the receiving replica wire-serves without
// ever recursing.
func TestPeekKeepsWireImages(t *testing.T) {
	clock := newClock()
	a, b, upA, upB := twoReplicas(t, clock)
	upA.set(func(_ context.Context, n dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(n, 300), nil
	})
	upB.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		t.Error("replica B recursed despite A holding a fresh entry")
		return nil, errors.New("unreachable")
	})

	// Warm A twice: first fills, second serves fresh and captures the wire
	// image.
	for i := 0; i < 2; i++ {
		if _, err := a.HandleDNS(context.Background(), query("hot.example.")); err != nil {
			t.Fatal(err)
		}
	}
	// B's miss peeks A's entry, wire image and all.
	if _, err := b.HandleDNS(context.Background(), query("hot.example.")); err != nil {
		t.Fatal(err)
	}

	qw, err := query("hot.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	wq, ok := dnswire.ScanQuery(qw)
	if !ok {
		t.Fatal("ScanQuery rejected query")
	}
	if _, ok := b.ServeWire(wq, 65535, nil); !ok {
		t.Fatal("peeked entry did not wire-serve on the receiving replica")
	}
	if b.Metrics().Snapshot().WireHits != 1 {
		t.Fatalf("wire hit not counted on receiver: %+v", b.Metrics().Snapshot())
	}
	if upB.calls.Load() != 0 {
		t.Fatalf("B recursed %d times, want 0", upB.calls.Load())
	}
}
