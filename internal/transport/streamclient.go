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

// DefaultClientIdleTimeout closes a StreamClient's cached connection after
// this much time without a query. It is deliberately shorter than the
// server-side DefaultIdleTimeout so the client usually closes first and a
// stale-connection redial stays the exception, not the rule.
const DefaultClientIdleTimeout = 10 * time.Second

// ErrClientClosed is returned by StreamClient.Query after Close.
var ErrClientClosed = errors.New("transport: stream client closed")

// StreamClient is a persistent framed-stream DNS client: one TCP or DoT
// connection reused across queries instead of the dial-per-query QueryTCP /
// QueryDoT helpers. Campaign-scale scanning over stream transports pays one
// handshake (and for DoT one TLS negotiation) per authority instead of one
// per query, which is the RFC 7766 §6.2.1 connection-reuse guidance.
//
// Queries are serialized on the single connection — the client is safe for
// concurrent use, but calls take turns. An idle timer closes the cached
// connection after IdleTimeout so a long-lived client does not pin sockets
// to authorities it has moved past; the next Query transparently redials.
// If the server closed the connection first (its own idle timeout, a
// restart), the exchange fails on a reused connection and Query redials
// once before reporting an error.
type StreamClient struct {
	// Addr is the host:port to dial.
	Addr string
	// TLSConfig non-nil selects DoT; nil selects plain TCP.
	TLSConfig *tls.Config
	// IdleTimeout closes the cached connection after this much time
	// without a query. Zero means DefaultClientIdleTimeout; negative
	// disables the timer (the connection lives until Close or error).
	IdleTimeout time.Duration
	// RequestKeepalive adds an empty edns-tcp-keepalive option (RFC 7828
	// §3.2.1) to EDNS queries. When the server answers with a TIMEOUT, the
	// client stretches its idle timer up to the advertised value, so the
	// connection stays cached as long as the server promises to hold it.
	RequestKeepalive bool

	mu        sync.Mutex
	conn      net.Conn
	timer     *time.Timer
	closed    bool
	keepalive time.Duration // server-advertised idle timeout; -1 = close now
	dials     atomic.Uint64
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
	if c.timer != nil {
		c.timer.Stop()
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
	c.noteKeepaliveLocked(resp)
	if c.keepalive < 0 {
		// TIMEOUT 0: the server wants the connection back immediately
		// (RFC 7828 §3.2.2); honour it instead of idling.
		c.dropLocked()
		return resp, nil
	}
	c.armIdleLocked()
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

// noteKeepaliveLocked records the server's advertised edns-tcp-keepalive
// TIMEOUT, if the response carries one.
func (c *StreamClient) noteKeepaliveLocked(resp *dnswire.Message) {
	if resp.OPT == nil {
		return
	}
	for _, o := range resp.OPT.Options {
		ka, ok := o.(dnswire.TCPKeepaliveOption)
		if !ok || !ka.HasTimeout {
			continue
		}
		if ka.Timeout == 0 {
			c.keepalive = -1
			return
		}
		c.keepalive = time.Duration(ka.Timeout) * 100 * time.Millisecond
		return
	}
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

// dropLocked closes and forgets the cached connection and its idle timer.
func (c *StreamClient) dropLocked() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.keepalive = 0 // the advertisement was scoped to that connection
}

// armIdleLocked (re)starts the idle-close timer after a completed exchange.
// A server keepalive advertisement stretches the timer: the whole point of
// RFC 7828 is that the client no longer has to guess the server's idle
// policy, so the configured client-side guess only acts as a floor.
func (c *StreamClient) armIdleLocked() {
	if c.IdleTimeout < 0 {
		return
	}
	d := c.IdleTimeout
	if d == 0 {
		d = DefaultClientIdleTimeout
	}
	if c.keepalive > d {
		d = c.keepalive
	}
	if c.timer != nil {
		c.timer.Reset(d)
		return
	}
	c.timer = time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Query stops the timer under the lock before using the
		// connection, so reaching here means the client is truly idle.
		c.dropLocked()
	})
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
