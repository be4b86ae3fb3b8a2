package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// rawUDPResponder answers each datagram on a loopback socket with whatever
// reply builds from the parsed query, ignoring the advertised buffer size;
// a nil reply stays silent.
func rawUDPResponder(t *testing.T, reply func(q *dnswire.Message) *dnswire.Message) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 65535)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil {
				continue
			}
			if resp := reply(q); resp != nil {
				if wire, err := resp.Pack(); err == nil {
					conn.WriteTo(wire, from)
				}
			}
		}
	}()
	return conn.LocalAddr().String()
}

// TestQueryUDPParsesLargestDatagram: the client reads into a buffer that
// holds any datagram UDP can carry, so a server that ignores the advertised
// size (here: ~60 KB against 1232) is still parsed whole, not cut short.
func TestQueryUDPParsesLargestDatagram(t *testing.T) {
	const records = 240
	addr := rawUDPResponder(t, func(q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		for i := 0; i < records; i++ {
			r.Answer = append(r.Answer, dnswire.RR{
				Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.TXT{Strings: []string{string(make([]byte, 250))}},
			})
		}
		return r
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := QueryUDP(ctx, addr, dnswire.NewQuery(77, dnswire.MustName("huge.example"), dnswire.TypeTXT))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.ID != 77 || !resp.Response || len(resp.Answer) != records {
		t.Errorf("id=%d qr=%t answers=%d, want id 77 and all %d records", resp.ID, resp.Response, len(resp.Answer), records)
	}
	if wire, _ := resp.Pack(); len(wire) < 60000 {
		t.Errorf("response is %d bytes; the test meant to exceed every smaller buffer", len(wire))
	}
}

// TestQueryUDPHonoursDeadline: against a server that never answers, the
// call returns a timeout when ctx's deadline passes, not when some default
// does.
func TestQueryUDPHonoursDeadline(t *testing.T) {
	addr := rawUDPResponder(t, func(*dnswire.Message) *dnswire.Message { return nil })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := QueryUDP(ctx, addr, dnswire.NewQuery(78, dnswire.MustName("silent.example"), dnswire.TypeA))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("returned after %v, long past the 100ms deadline", took)
	}
}
