package cluster

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// startPeer serves a scripted answer on a real loopback UDP socket — a
// stand-in for a secondary replica's front door.
func startPeer(t *testing.T, answer netip.Addr) (addr string, stop func()) {
	t.Helper()
	h := netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		r.Answer = []dnswire.RR{{
			Name: q.Question[0].Name, TTL: 60, Class: dnswire.ClassIN,
			Data: dnswire.A{Addr: answer},
		}}
		return r, nil
	})
	srv := transport.NewServer(transport.Config{Handler: h})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.ServeUDP(ctx, conn); close(done) }()
	return conn.LocalAddr().String(), func() { cancel(); <-done }
}

// TestClusterRemoteForward: a remote member serves its ring range via UDP
// forwarding with the client's ID restored; when it dies, the router
// retries onto a live node and marks the peer down after the failure
// limit.
func TestClusterRemoteForward(t *testing.T) {
	peerAddr, stopPeer := startPeer(t, netip.MustParseAddr("192.0.2.99"))

	cl := New(Config{
		Seed:           1,
		forwardTimeout: 250 * time.Millisecond,
	})
	if err := cl.AddRemote("peer", peerAddr); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	ctx := context.Background()

	q := dnswire.NewQuery(0x4242, "remote.example.", dnswire.TypeA)
	resp, err := cl.HandleDNS(ctx, q)
	if err != nil {
		t.Fatalf("forwarded query: %v", err)
	}
	if resp.ID != 0x4242 {
		t.Fatalf("forwarded answer ID %#x, want the client's %#x", resp.ID, 0x4242)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].Data.(dnswire.A).Addr != netip.MustParseAddr("192.0.2.99") {
		t.Fatalf("unexpected forwarded answer: %+v", resp.Answer)
	}

	// Kill the peer: forwards fail, and after remoteFailureLimit the
	// member is marked down. With no other replica the router answers
	// SERVFAIL + EDE 23 itself.
	stopPeer()
	for i := 0; i <= remoteFailureLimit; i++ {
		q := dnswire.NewQuery(uint16(i), "remote.example.", dnswire.TypeA)
		resp, err := cl.HandleDNS(ctx, q)
		if err != nil || resp == nil {
			t.Fatalf("router must answer even with the peer dead: %v", err)
		}
		if resp.RCode != dnswire.RCodeServFail {
			t.Fatalf("query %d: rcode %v, want SERVFAIL", i, resp.RCode)
		}
	}
	st := cl.StateSnapshot()
	if st.Members[0].State != "down" {
		t.Fatalf("peer state %q after repeated failures, want down", st.Members[0].State)
	}
	// remoteFailureLimit forwards failed (the last marked the peer down),
	// and none of the queries found a replica to answer it.
	if got := clMetric(t, cl, "edelab_cluster_forward_failures_total"); got != remoteFailureLimit {
		t.Errorf("forward_failures_total = %v, want %d", got, remoteFailureLimit)
	}
	if got := clMetric(t, cl, "edelab_cluster_unrouted_total"); got != remoteFailureLimit+1 {
		t.Errorf("unrouted_total = %v, want %d", got, remoteFailureLimit+1)
	}
}
