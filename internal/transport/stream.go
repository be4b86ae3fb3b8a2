package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// ServeTCP serves RFC 1035 §4.2.2 framed queries from l until ctx is
// cancelled: two-byte length prefix, pipelining, out-of-order responses.
func (s *Server) ServeTCP(ctx context.Context, l net.Listener) error {
	return s.serveStreamListener(ctx, l, TransportTCP)
}

// ServeDoT serves DNS-over-TLS (RFC 7858): the identical stream core under
// crypto/tls. The caller provides a base (usually TCP) listener and the
// server's TLS configuration.
func (s *Server) ServeDoT(ctx context.Context, l net.Listener, tlsConf *tls.Config) error {
	return s.serveStreamListener(ctx, tls.NewListener(l, tlsConf), TransportDoT)
}

// serveStreamListener accepts connections and serves each with the shared
// stream core. Per-listener concurrency is bounded by maxConns: a
// connection past the bound gets its first query answered with the shed
// reply, then is closed. On ctx cancellation the listener closes, every
// open connection's read deadline is expired to wake its reader, in-flight
// queries finish and write their responses, and only then does the call
// return.
func (s *Server) serveStreamListener(ctx context.Context, l net.Listener, transport string) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			mu.Lock()
			for c := range conns {
				// A deadline in the past fails the blocked read and
				// every future one: the serve loop exits after its
				// in-flight queries drain.
				c.SetReadDeadline(time.Now())
			}
			mu.Unlock()
		case <-done:
		}
	}()

	connSem := make(chan struct{}, maxConns)
	var wg sync.WaitGroup
	defer wg.Wait()

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case connSem <- struct{}{}:
		default:
			s.m.sheds[transport].Inc()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.shedConn(conn, transport)
			}()
			continue
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				<-connSem
			}()
			s.serveStream(ctx, conn, transport)
		}()
	}
}

// shedConn handles a connection rejected at the maxConns bound: read one
// query (briefly), answer it from the wire cache or else SERVFAIL + EDE 23
// so the client learns why, and close.
func (s *Server) shedConn(conn net.Conn, transport string) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(DefaultWriteTimeout))
	c := &streamConn{s: s, conn: conn, transport: transport, br: bufio.NewReaderSize(conn, streamReadBuf)}
	frame, err := c.readFrame()
	if err != nil {
		return
	}
	if q := c.serveFrame(frame); q != nil {
		c.queue(shedReply(q, "server overloaded: connection limit reached"))
	}
	c.flush()
}

// Stream core sizes. A connection owns one read buffer and one output
// buffer; the output buffer is written out when it passes streamFlushAt, so
// the two together stay under 64 KiB unless a single answer is larger.
const (
	streamReadBuf = 4 << 10
	streamFlushAt = 32 << 10
)

// keepaliveOptLen is the wire size of a response's edns-tcp-keepalive
// option: code, length, and the two-byte TIMEOUT (RFC 7828 §3.1).
const keepaliveOptLen = 6

// streamConn is one stream connection's serving state. The reader
// goroutine owns br, frame, out, and frames; wmu orders its flushes against
// the slow-path goroutines' writes so frames stay whole.
type streamConn struct {
	s         *Server
	conn      net.Conn
	transport string
	br        *bufio.Reader
	frame     []byte // the last frame read, reused for the next

	wmu    sync.Mutex
	out    []byte // framed answers built inline, not yet written
	frames int    // how many answers out holds
}

// serveStream is the stream door, shaped like the UDP loop: the reader
// goroutine takes frames out of a buffered reader and answers what it can
// inline — wire-cache hits and FORMERRs — into the connection's output
// buffer, which goes out in one Write when the next read would block or the
// buffer passes streamFlushAt. Everything the wire cache declines is
// admitted into a bounded per-connection pipeline and answered from its own
// goroutine with its own Write, so a slow resolution never holds back the
// answers behind it (RFC 7766 §6.2.1.1). The idle deadline is armed only
// when the reader is about to block, and covers the whole frame it waits
// for.
func (s *Server) serveStream(ctx context.Context, conn net.Conn, transport string) {
	defer conn.Close()
	s.m.open[transport].Add(1)
	defer s.m.open[transport].Add(-1)

	c := &streamConn{s: s, conn: conn, transport: transport, br: bufio.NewReaderSize(conn, streamReadBuf)}
	pipe := make(chan struct{}, maxPipeline)
	var wg sync.WaitGroup
	defer wg.Wait()
	// Whatever ends the loop, answers already built still go out.
	defer c.flush()

	for {
		if !c.frameBuffered() {
			c.flush()
			conn.SetReadDeadline(time.Now().Add(s.idle))
			// Checked after arming: a cancellation from here on expires
			// the deadline just set, an earlier one is seen now.
			if ctx.Err() != nil {
				return
			}
		}
		frame, err := c.readFrame()
		if err != nil {
			// EOF between frames, idle timeout, and shutdown-induced
			// deadline are the normal ends of a connection; a mid-frame
			// disconnect or a frame too short to hold an ID is an error.
			if err != io.EOF && !os.IsTimeout(err) && !errors.Is(err, net.ErrClosed) {
				s.m.errors[transport].Inc()
			}
			return
		}
		q := c.serveFrame(frame)
		if q == nil {
			continue
		}

		select {
		case pipe <- struct{}{}:
		default:
			s.m.sheds[transport].Inc()
			c.queue(shedReply(q, fmt.Sprintf("server overloaded: %d queries in flight on this connection", cap(pipe))))
			continue
		}
		s.m.pipeline.Observe(float64(len(pipe)))

		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-pipe }()
			if resp := s.respond(ctx, transport, q); resp != nil {
				c.write(resp)
			}
		}()
	}
}

// frameBuffered reports whether readFrame can return without reading from
// the connection.
func (c *streamConn) frameBuffered() bool {
	have := c.br.Buffered()
	if have < 2 {
		return false
	}
	hdr, _ := c.br.Peek(2)
	return have >= 2+int(binary.BigEndian.Uint16(hdr))
}

// errShortFrame rejects a frame that cannot hold a message ID: there is
// nothing to echo in a FORMERR, so the connection closes.
var errShortFrame = errors.New("transport: stream frame shorter than a message ID")

// readFrame reads the next frame's payload into the connection's frame
// buffer; the slice is valid until the next call. io.EOF means the stream
// ended between frames, io.ErrUnexpectedEOF inside one.
func (c *streamConn) readFrame() ([]byte, error) {
	hdr, err := c.br.Peek(2)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	if n < 2 {
		return nil, errShortFrame
	}
	c.br.Discard(2) // just peeked, so it cannot fail
	if cap(c.frame) < n {
		c.frame = make([]byte, max(n, minUDPPayload)) // most connections never outgrow the first
	}
	if _, err := io.ReadFull(c.br, c.frame[:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return c.frame[:n], nil
}

// serveFrame runs one frame through the serve core and returns the parsed
// query for the slow path, or nil when it answered into the output buffer:
// a wire-cache answer behind a two-byte gap that then takes its length, the
// keepalive option patched in, or a FORMERR for unreadable bytes.
func (c *streamConn) serveFrame(frame []byte) *dnswire.Message {
	s := c.s
	base := len(c.out)
	limit := 0xFFFF
	if s.keepalive != 0 {
		limit -= keepaliveOptLen
	}
	wire, q, err := s.serveQuery(c.transport, frame, limit, append(c.out, 0, 0), nil)
	if err != nil {
		c.out = appendFORMERR(append(c.out, 0, formerrLen), frame)
		c.queued()
		return nil
	}
	s.m.queries[c.transport].Inc()
	if wire == nil {
		return q
	}
	if s.keepalive != 0 {
		wire = appendKeepalive(wire, base+2, s.keepalive)
	}
	binary.BigEndian.PutUint16(wire[base:], uint16(len(wire)-base-2))
	c.out = wire
	c.queued()
	return nil
}

// queued counts one more frame in the output buffer and writes the buffer
// out once it is large enough that waiting for the reader to run dry would
// only add latency.
func (c *streamConn) queued() {
	c.frames++
	if len(c.out) >= streamFlushAt {
		c.flush()
	}
}

// flush writes the output buffer in one Write.
func (c *streamConn) flush() {
	if c.frames == 0 {
		return
	}
	c.s.m.streamFlushes.Inc()
	c.s.m.streamFlushFrames.Add(uint64(c.frames))
	c.writeLocked(c.out)
	c.out, c.frames = c.out[:0], 0
}

// write frames and sends one slow-path response with a Write of its own.
func (c *streamConn) write(resp *dnswire.Message) {
	if wire, ok := c.appendFramed(resp, nil); ok {
		c.writeLocked(wire)
	}
}

// queue frames resp into the output buffer like a wire serve: the reader's
// own answers (a pipeline shed) leave in its next flush.
func (c *streamConn) queue(resp *dnswire.Message) {
	if out, ok := c.appendFramed(resp, c.out); ok {
		c.out = out
		c.queued()
	}
}

// appendFramed appends resp, framed, to buf. Stream responses to EDNS queries
// advertise the configured edns-tcp-keepalive timeout, appended to the packed
// bytes as on the wire path; RFC 7828 §3.4 forbids the option over UDP, and
// the option rides in OPT so non-EDNS responses cannot carry it. A response
// the option would push past the 64 KiB frame is an error, like one that
// does not fit without it.
func (c *streamConn) appendFramed(resp *dnswire.Message, buf []byte) ([]byte, bool) {
	start := len(buf)
	wire, err := resp.AppendStream(buf)
	if err == nil && c.s.keepalive != 0 && resp.OPT != nil {
		wire = appendKeepalive(wire, start+2, c.s.keepalive)
		if n := len(wire) - start - 2; n <= 0xFFFF {
			binary.BigEndian.PutUint16(wire[start:], uint16(n))
		} else {
			err = dnswire.ErrStreamFrameTooLarge
		}
	}
	if err != nil {
		c.s.m.errors[c.transport].Inc()
		return nil, false
	}
	return wire, true
}

// writeLocked sends whole frames under the write mutex with a bounded
// deadline. A failed write closes the connection — the stream may hold a
// torn frame — which also ends the reader's loop at its next read.
func (c *streamConn) writeLocked(frames []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	if _, err := c.conn.Write(frames); err != nil {
		c.s.m.errors[c.transport].Inc()
		c.conn.Close()
	}
}

// keepaliveUnits converts the configured keepalive to the option's
// 100ms units (RFC 7828 §3.1), clamped to what the field holds; zero stays
// zero and means nothing is advertised.
func keepaliveUnits(d time.Duration) uint16 {
	if d <= 0 {
		return 0
	}
	return uint16(min(max(d/(100*time.Millisecond), 1), 0xFFFF))
}

// appendKeepalive adds an edns-tcp-keepalive TIMEOUT of units (RFC 7828
// §3.3.2) to packed bytes: buf[start:] is a message whose last RR is its OPT
// (the canonical pack puts it there), and the option goes behind the OPT's
// last option with RDLENGTH raised to match. A message that does not end in
// an OPT is returned unchanged.
func appendKeepalive(buf []byte, start int, units uint16) []byte {
	at, ok := dnswire.TrailingOPT(buf[start:])
	if !ok {
		return buf
	}
	rdlen := buf[start+at+9:]
	binary.BigEndian.PutUint16(rdlen, binary.BigEndian.Uint16(rdlen)+keepaliveOptLen)
	return append(buf, 0, byte(dnswire.OptionCodeTCPKeepalive), 0, 2, byte(units>>8), byte(units))
}
