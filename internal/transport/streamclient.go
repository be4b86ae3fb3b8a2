package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// ErrClientClosed is returned by StreamClient.Query after Close.
var ErrClientClosed = errors.New("transport: stream client closed")

// StreamClient is a persistent framed-stream DNS client: one TCP or DoT
// connection reused across queries instead of the dial-per-query QueryTCP /
// QueryDoT helpers. Campaign-scale scanning over stream transports pays one
// handshake (and for DoT one TLS negotiation) per authority instead of one
// per query, which is the RFC 7766 §6.2.1 connection-reuse guidance.
//
// Queries are serialized on the single connection — the client is safe for
// concurrent use, but calls take turns. The connection lives until Close, an
// error, or a server that asks for it back (edns-tcp-keepalive TIMEOUT 0).
// If the server closed the connection first (its own idle timeout, a
// restart), the exchange fails on a reused connection and Query redials
// once before reporting an error.
type StreamClient struct {
	// Addr is the host:port to dial.
	Addr string
	// TLSConfig non-nil selects DoT; nil selects plain TCP.
	TLSConfig *tls.Config
	// RequestKeepalive adds an empty edns-tcp-keepalive option (RFC 7828
	// §3.2.1) to EDNS queries, asking the server to advertise how long it
	// holds an idle connection.
	RequestKeepalive bool

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	dials  atomic.Uint64
}

// Query sends q over the cached connection — dialing if there is none —
// and reads one response. The context bounds the whole exchange including
// any dial via connection deadlines.
func (c *StreamClient) Query(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}

	if c.RequestKeepalive && q.OPT != nil {
		q = requestKeepalive(q)
	}

	reused := c.conn != nil
	conn, err := c.connLocked(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := exchangeKeep(ctx, conn, q)
	if err != nil && reused {
		// The server likely closed the idle connection between queries;
		// a fresh dial disambiguates a stale socket from a dead server.
		c.dropLocked()
		if conn, err = c.connLocked(ctx); err != nil {
			return nil, err
		}
		resp, err = exchangeKeep(ctx, conn, q)
	}
	if err != nil {
		c.dropLocked()
		return nil, err
	}
	if closeNow(resp) {
		// TIMEOUT 0: the server wants the connection back immediately
		// (RFC 7828 §3.2.2); honour it instead of idling.
		c.dropLocked()
	}
	return resp, nil
}

// requestKeepalive returns a copy of q whose OPT carries the empty
// edns-tcp-keepalive option, leaving the caller's message untouched.
func requestKeepalive(q *dnswire.Message) *dnswire.Message {
	for _, o := range q.OPT.Options {
		if o.Code() == dnswire.OptionCodeTCPKeepalive {
			return q
		}
	}
	out := *q
	opt := *q.OPT
	opt.Options = append(opt.Options[:len(opt.Options):len(opt.Options)],
		dnswire.TCPKeepaliveOption{})
	out.OPT = &opt
	return &out
}

// closeNow reports whether resp carries an edns-tcp-keepalive TIMEOUT of 0.
func closeNow(resp *dnswire.Message) bool {
	if resp.OPT == nil {
		return false
	}
	for _, o := range resp.OPT.Options {
		if ka, ok := o.(dnswire.TCPKeepaliveOption); ok && ka.HasTimeout {
			return ka.Timeout == 0
		}
	}
	return false
}

// Dials reports how many connections the client has opened — the number a
// reuse test asserts against.
func (c *StreamClient) Dials() uint64 { return c.dials.Load() }

// Close drops the cached connection and fails all future queries.
func (c *StreamClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropLocked()
	return nil
}

// connLocked returns the cached connection, dialing one if needed.
func (c *StreamClient) connLocked(ctx context.Context) (net.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	var (
		conn net.Conn
		err  error
	)
	if c.TLSConfig != nil {
		d := tls.Dialer{Config: c.TLSConfig}
		conn, err = d.DialContext(ctx, "tcp", c.Addr)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(ctx, "tcp", c.Addr)
	}
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	c.conn = conn
	return conn, nil
}

// dropLocked closes and forgets the cached connection.
func (c *StreamClient) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// exchangeKeep performs one framed request/response without closing conn,
// honouring ctx through a per-exchange deadline.
func exchangeKeep(ctx context.Context, conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Now().Add(DefaultWriteTimeout)
	}
	conn.SetDeadline(dl)
	if err := q.WriteStream(conn); err != nil {
		return nil, err
	}
	return dnswire.ReadStream(conn)
}
