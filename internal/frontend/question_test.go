package frontend

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
)

func hasRRSIG(m *dnswire.Message) bool {
	for _, rr := range m.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			return true
		}
	}
	return false
}

// TestOneEntryPerQuestion: a DO=1, a DO=0 and a pre-EDNS client asking one
// name cost one recursion and one cache entry. Each reply is the bytes a
// frontend that had only ever seen that client would send (RRSIGs and AD
// for DO=1 only), and each client's repeat is wire-served from its own
// image.
func TestOneEntryPerQuestion(t *testing.T) {
	clock := newClock()
	answer := func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return dnssecAnswer(qname, 100), nil
	}
	up := &stubUpstream{}
	up.set(answer)
	f := New(up, Config{Now: clock.Now})

	clientClasses := []struct {
		name     string
		edns, do bool
	}{
		{"edns+do", true, true},
		{"edns", true, false},
		{"noedns", false, false},
	}
	slow := make([][]byte, len(clientClasses))
	for i, cl := range clientClasses {
		q := wireQueryMsg(uint16(i+1), "www.example.", false, cl.edns, cl.do)
		resp, err := f.HandleDNS(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if hasRRSIG(resp) != cl.do || resp.AuthenticData != cl.do {
			t.Errorf("%s: RRSIG %t, AD %t; want both %t", cl.name, hasRRSIG(resp), resp.AuthenticData, cl.do)
		}
		if slow[i], err = resp.AppendPack(nil); err != nil {
			t.Fatal(err)
		}

		refUp := &stubUpstream{}
		refUp.set(answer)
		ref, err := New(refUp, Config{Now: clock.Now}).HandleDNS(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(slow[i], want) {
			t.Errorf("%s: reply differs from a single-client frontend's\ngot:  %x\nwant: %x", cl.name, slow[i], want)
		}
	}
	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream recursions = %d, want 1", got)
	}
	if got := f.CacheLen(); got != 1 {
		t.Fatalf("CacheLen = %d, want 1", got)
	}

	for i, cl := range clientClasses {
		raw, err := wireQueryMsg(uint16(i+1), "www.example.", false, cl.edns, cl.do).Pack()
		if err != nil {
			t.Fatal(err)
		}
		wq, ok := dnswire.ScanQuery(raw)
		if !ok {
			t.Fatal("ScanQuery rejected the query")
		}
		fast, ok := f.ServeWire(wq, 0xFFFF, nil)
		if !ok {
			t.Fatalf("%s: repeat was not wire-served", cl.name)
		}
		if !bytes.Equal(fast, slow[i]) {
			t.Errorf("%s: wire serve differs from the slow-path reply\nfast: %x\nslow: %x", cl.name, fast, slow[i])
		}
	}
	if snap := f.Metrics().Snapshot(); snap.Misses != 1 || snap.Hits != 5 || snap.WireHits != 3 {
		t.Errorf("misses %d, hits %d, wire hits %d; want 1, 5, 3", snap.Misses, snap.Hits, snap.WireHits)
	}
}

// TestMixedDOMissesShareOneFlight: a DO=0 and a DO=1 client missing on the
// same question at once make one recursion.
func TestMixedDOMissesShareOneFlight(t *testing.T) {
	release := make(chan struct{})
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		<-release // hold the leader in flight until the other client has joined
		return dnssecAnswer(qname, 300), nil
	})
	f := New(up, Config{})

	var wg sync.WaitGroup
	for _, do := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.HandleDNS(context.Background(), wireQueryMsg(1, "popular.example.", false, true, do))
			if err != nil || resp.RCode != dnswire.RCodeNoError || hasRRSIG(resp) != do {
				t.Errorf("DO=%t client got %v / %v", do, resp, err)
			}
		}()
	}
	for f.Metrics().Snapshot().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream recursions = %d, want 1", got)
	}
	if snap := f.Metrics().Snapshot(); snap.Misses != 1 || snap.CoalescedWaits != 1 {
		t.Fatalf("misses %d, coalesced waits %d; want 1 and 1", snap.Misses, snap.CoalescedWaits)
	}
}

// TestStaleRescueAcrossDO: a DO=0 client is rescued stale from the entry a
// DO=1 client filled, rendered for DO=0.
func TestStaleRescueAcrossDO(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return dnssecAnswer(qname, 60), nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), wireQueryMsg(1, "a.example.", false, true, true)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	up.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, errors.New("down")
	})
	resp, err := f.HandleDNS(context.Background(), wireQueryMsg(2, "a.example.", false, true, false))
	if err != nil {
		t.Fatal(err)
	}
	hasEDE(t, resp, ede.CodeStaleAnswer)
	if len(resp.Answer) != 1 || resp.Answer[0].TTL != staleTTL || resp.AuthenticData {
		t.Fatalf("stale reply for DO=0: answer %+v, AD %t; want one A record at TTL %d, no AD", resp.Answer, resp.AuthenticData, staleTTL)
	}
	if snap := f.Metrics().Snapshot(); snap.StaleServes != 1 {
		t.Fatalf("stale serves = %d, want 1", snap.StaleServes)
	}
}
