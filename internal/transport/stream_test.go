package transport

import (
	"context"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// echoHandler answers every query NOERROR with a fixed A record, after an
// optional per-name delay looked up in delays.
func echoHandler(delays map[string]time.Duration) netsim.Handler {
	return netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if d, ok := delays[q.Question[0].Name.String()]; ok {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		r := q.Reply()
		r.RecursionAvailable = true
		r.Answer = []dnswire.RR{{
			Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: mustAddr("192.0.2.1")},
		}}
		return r, nil
	})
}

func startTCP(t *testing.T, cfg Config) (addr string, srv *Server, cancel context.CancelFunc, served <-chan error) {
	t.Helper()
	srv = NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ctx, l) }()
	t.Cleanup(stop)
	return l.Addr().String(), srv, stop, done
}

// TestPipelinedOutOfOrder sends a slow query then a fast one on the same
// connection and requires the fast answer first: RFC 7766 §6.2.1.1
// out-of-order processing, the point of the per-query goroutines.
func TestPipelinedOutOfOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(map[string]time.Duration{
		"slow.example.": 500 * time.Millisecond,
	}), Registry: reg})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	slow := dnswire.NewQuery(1, dnswire.MustName("slow.example"), dnswire.TypeA)
	fast := dnswire.NewQuery(2, dnswire.MustName("fast.example"), dnswire.TypeA)
	if err := slow.WriteStream(conn); err != nil {
		t.Fatalf("writing slow query: %v", err)
	}
	if err := fast.WriteStream(conn); err != nil {
		t.Fatalf("writing fast query: %v", err)
	}

	first, err := dnswire.ReadStream(conn)
	if err != nil {
		t.Fatalf("reading first response: %v", err)
	}
	second, err := dnswire.ReadStream(conn)
	if err != nil {
		t.Fatalf("reading second response: %v", err)
	}
	if first.ID != 2 || second.ID != 1 {
		t.Errorf("response order = %d, %d; want fast (2) before slow (1)", first.ID, second.ID)
	}
	// Both queries were admitted into the pipeline, on the one connection
	// still open.
	if v, _ := reg.Value("edelab_frontdoor_pipeline_depth"); v != 2 {
		t.Errorf("pipeline_depth observations = %v, want 2", v)
	}
	if v, _ := reg.Value("edelab_frontdoor_open_connections", telemetry.L("transport", TransportTCP)); v != 1 {
		t.Errorf("open_connections{transport=tcp} = %v, want 1", v)
	}
}

// TestPipelineShed bounds per-connection concurrency: with maxPipeline
// queries parked, the next must be answered immediately with SERVFAIL +
// EDE 23 rather than queued.
func TestPipelineShed(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{
		Handler: echoHandler(map[string]time.Duration{"slow.example.": 2 * time.Second}),
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	var burst []byte
	for id := uint16(1); id <= maxPipeline; id++ {
		burst = append(burst, framed(t, dnswire.NewQuery(id, dnswire.MustName("slow.example"), dnswire.TypeA))...)
	}
	burst = append(burst, framed(t, dnswire.NewQuery(maxPipeline+1, dnswire.MustName("fast.example"), dnswire.TypeA))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatalf("write: %v", err)
	}

	resp, err := dnswire.ReadStream(conn)
	if err != nil {
		t.Fatalf("reading shed response: %v", err)
	}
	if resp.ID != maxPipeline+1 {
		t.Fatalf("first response ID = %d, want %d (the shed query)", resp.ID, maxPipeline+1)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("shed RCODE = %s, want SERVFAIL", resp.RCode)
	}
	assertEDE(t, resp, uint16(ede.CodeNetworkError))
}

// TestConnShed bounds per-listener connections: with maxConns connections
// held open, the next connection's first query is answered SERVFAIL +
// EDE 23 and the connection closed.
func TestConnShed(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})

	// The accept loop takes connections in the order their handshakes
	// completed and admits each before accepting the next, so the first
	// maxConns dialled hold every slot.
	for i := 0; i < maxConns; i++ {
		hold, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i+1, err)
		}
		defer hold.Close()
	}

	shed, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %d: %v", maxConns+1, err)
	}
	defer shed.Close()
	dnswire.NewQuery(2, dnswire.MustName("b.example"), dnswire.TypeA).WriteStream(shed)
	resp, err := dnswire.ReadStream(shed)
	if err != nil {
		t.Fatalf("reading shed response: %v", err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("shed RCODE = %s, want SERVFAIL", resp.RCode)
	}
	assertEDE(t, resp, uint16(ede.CodeNetworkError))
	if _, err := dnswire.ReadStream(shed); err == nil {
		t.Error("shed connection stayed open; want close after the shed reply")
	}
}

// TestIdleTimeout: a connection with no queries is closed once the idle
// timeout the server advertises (TCPKeepalive, in whole 100 ms units)
// elapses, and not before.
func TestIdleTimeout(t *testing.T) {
	for _, keepalive := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		t.Run(keepalive.String(), func(t *testing.T) {
			addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil), TCPKeepalive: keepalive})

			start := time.Now()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetReadDeadline(start.Add(time.Second))
			if _, err := io.ReadAll(conn); err != nil && !os.IsTimeout(err) {
				t.Fatalf("read: %v", err)
			} else if err != nil {
				t.Fatalf("connection still open %v after an idle timeout of %v", time.Since(start), keepalive)
			}
			if idle := time.Since(start); idle < keepalive {
				t.Errorf("connection closed after %v idle, before the advertised %v", idle, keepalive)
			}
		})
	}
}

// TestGracefulDrain cancels the serve context while a query is in flight
// and requires (a) the in-flight response still arrives and (b) ServeTCP
// returns.
func TestGracefulDrain(t *testing.T) {
	addr, _, stop, served := startTCP(t, Config{Handler: echoHandler(map[string]time.Duration{
		"slow.example.": 300 * time.Millisecond,
	})})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	dnswire.NewQuery(9, dnswire.MustName("slow.example"), dnswire.TypeA).WriteStream(conn)
	time.Sleep(50 * time.Millisecond) // let the server admit the query
	stop()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := dnswire.ReadStream(conn)
	if err != nil {
		t.Fatalf("in-flight response lost during drain: %v", err)
	}
	if resp.ID != 9 || resp.RCode != dnswire.RCodeNoError {
		t.Errorf("drained response = id %d rcode %s, want id 9 NOERROR", resp.ID, resp.RCode)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not return after cancellation")
	}
}

// TestStreamConcurrentClients exercises the stream core under -race: many
// connections, each pipelining several queries.
func TestStreamConcurrentClients(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			const n = 16
			for j := 0; j < n; j++ {
				q := dnswire.NewQuery(uint16(i*100+j), dnswire.MustName("a.example"), dnswire.TypeA)
				if err := q.WriteStream(conn); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			for j := 0; j < n; j++ {
				if _, err := dnswire.ReadStream(conn); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func assertEDE(t *testing.T, m *dnswire.Message, code uint16) {
	t.Helper()
	for _, e := range m.EDEs() {
		if e.InfoCode == code {
			if e.ExtraText == "" || !strings.Contains(strings.ToLower(e.ExtraText), "overload") {
				t.Errorf("EDE %d EXTRA-TEXT = %q, want an overload explanation", code, e.ExtraText)
			}
			return
		}
	}
	t.Errorf("response EDEs = %v, want code %d", m.EDECodes(), code)
}
