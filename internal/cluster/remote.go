package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// remoteBackend forwards queries to a peer replica's front door over UDP:
// the router's half of cross-process clustering. This parsed forward serves
// the queries the UDP front door does not relay as raw datagrams
// (transport/relay.go): stream and DoH clients, anything ScanQuery refuses,
// and relayed queries that failed. The forwarded datagram is the client's
// query re-packed with a fresh ID (so concurrent forwards on pooled sockets
// cannot collide) and, when it carries an OPT, the largest UDP size there
// is: the peer never truncates, and the router's own transport decides
// once, against the client's real limit. A query with no OPT has no size to
// raise; when the peer truncates its answer, the forward asks again over
// TCP. The peer's answer comes back with the client's ID restored. One
// forward, one timeout — ring-level retry and down-marking live in the
// router.
type remoteBackend struct {
	addr    string
	peer    netip.AddrPort // addr resolved once, at admission
	timeout time.Duration
	nextID  atomic.Uint32
	conns   sync.Pool // *net.UDPConn, connected to addr
}

// errUnresolvable marks a join whose address does not resolve: such a
// member could only fail every forward, so it is not admitted.
var errUnresolvable = errors.New("cluster: replica address does not resolve")

func newRemoteBackend(addr string, timeout time.Duration) (*remoteBackend, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errUnresolvable, err)
	}
	return &remoteBackend{addr: addr, peer: ua.AddrPort(), timeout: timeout}, nil
}

// maxDatagram is the largest UDP payload the 16-bit EDNS size can ask for.
const maxDatagram = 0xFFFF

// answerBufs holds the forward's receive buffers: a peer told to send up
// to maxDatagram must not meet a buffer that cuts its answer short.
var answerBufs = sync.Pool{
	New: func() any { b := make([]byte, maxDatagram); return &b },
}

func (r *remoteBackend) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	fq := q
	if q.OPT != nil {
		opt, m := *q.OPT, *q
		opt.UDPSize = maxDatagram
		m.OPT = &opt
		fq = &m
	}
	wire, err := fq.Pack()
	if err != nil {
		return nil, fmt.Errorf("cluster: pack forward to %s: %w", r.addr, err)
	}
	id := uint16(r.nextID.Add(1))
	if len(wire) < 2 {
		return nil, fmt.Errorf("cluster: short packed query")
	}
	wire[0], wire[1] = byte(id>>8), byte(id)

	conn, _ := r.conns.Get().(*net.UDPConn)
	if conn == nil {
		conn, err = net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(r.peer))
		if err != nil {
			return nil, fmt.Errorf("cluster: dial %s: %w", r.addr, err)
		}
	}

	deadline := time.Now().Add(r.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: forward to %s: %w", r.addr, err)
	}

	bufp := answerBufs.Get().(*[]byte)
	defer answerBufs.Put(bufp)
	buf := *bufp
	for {
		n, err := conn.Read(buf)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: read from %s: %w", r.addr, err)
		}
		if n < 2 || uint16(buf[0])<<8|uint16(buf[1]) != id {
			continue // stray answer to an earlier timed-out forward
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: unpack from %s: %w", r.addr, err)
		}
		r.conns.Put(conn)
		resp.ID = q.ID
		if resp.Truncated && q.OPT == nil {
			// No OPT to raise, so the peer cut the answer at 512 bytes. Ask
			// again over TCP, which a DNS server serves on its UDP address;
			// without an answer there, the truncated one stands.
			tctx, cancel := context.WithDeadline(ctx, deadline)
			whole, err := transport.QueryTCP(tctx, r.addr, q)
			cancel()
			if err == nil {
				return whole, nil
			}
		}
		return resp, nil
	}
}
