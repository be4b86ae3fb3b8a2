package transport

import (
	"context"
	"net"
	"sync"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// maxUDPPayload is the largest datagram a client could ask for (the EDNS
// buffer size field is 16 bits).
const maxUDPPayload = 0xFFFF

// minUDPPayload is the pre-EDNS message size limit (RFC 1035 §2.3.4), the
// floor for clients that send no OPT and for OPTs advertising less.
const minUDPPayload = 512

// udpQuerySlot is the longest query datagram the UDP front door accepts and
// the size of each of its receive slots; a longer datagram arrives cut short
// and is answered FORMERR. Queries are small: the Table 4 testbed's (63 cases,
// seven profiles, DO=1, CD set and clear) are 78 bytes at most, the
// benchmark's 44. 4,096 is over three times the 1,232 bytes this server
// advertises as its own payload size (dnswire's Reply), and the compromise
// RFC 6891 §6.2.5 recommends over the 64 KiB architectural limit.
const udpQuerySlot = 4096

// udpReplySlot is the capacity a UDP reply is built in: each reply slot of a
// listener and each pooled slow-path buffer. It is the 1,232 bytes most
// clients advertise, and far above what is served: the Table 4 testbed's
// answers are 298 bytes at p99 and 340 at most at every client limit from
// 1,232 to 65,535, the benchmark's 170 and 187. An answer longer than its
// slot is built in a buffer of its own, which the slot does not keep.
const udpReplySlot = 1232

// udpBatchSize is how many datagrams one recvmmsg/sendmmsg round moves on
// platforms with batched I/O; elsewhere the loop degrades to one datagram
// per round.
const udpBatchSize = 16

// udpReplyPool holds the slow path's reply buffers, udpReplySlot bytes each.
var udpReplyPool = sync.Pool{
	New: func() any { b := make([]byte, 0, udpReplySlot); return &b },
}

// udpIO abstracts the datagram I/O under the UDP read loop: a batched
// recvmmsg/sendmmsg implementation on Linux (udp_linux.go) and a portable
// single-datagram one everywhere else. An implementation owns a fixed set
// of receive slots, reused on every recv — slot contents are only valid
// until the next recv call. It is driven by one goroutine (the read loop);
// only the slow-path workers write to the connection independently.
type udpIO interface {
	udpReceiver
	// oversized reports whether datagram i was longer than a receive slot,
	// so that in(i) holds only its head.
	oversized(i int) bool
	// respBuf returns slot i's response buffer: length 0, capacity
	// udpReplySlot.
	respBuf(i int) []byte
	// queue arms wire — appended to respBuf(i), or grown out of it — as
	// the reply to datagram i's sender.
	queue(i int, wire []byte)
	// flush sends every queued reply and clears the queue.
	flush() error
}

// udpReceiver is the receive half of udpIO, all a relay peer socket's
// reader needs (relay.go).
type udpReceiver interface {
	// recv blocks until at least one datagram arrives, fills the receive
	// slots, and returns how many.
	recv() (int, error)
	// in returns the bytes of received datagram i.
	in(i int) []byte
	// addr materializes the sender address of datagram i (allocates, so
	// the fast path never calls it).
	addr(i int) net.Addr
	// saveAddr copies the sender address of datagram i into a, without
	// allocating, for a reply sent after the next recv.
	saveAddr(i int, a *udpAddr)
}

// udpSender queues whole datagrams on one socket and sends them together.
// It holds as many as one recv round yields and is driven by one goroutine,
// which flushes before it receives again; queued bytes and addresses must
// stay untouched until then.
type udpSender interface {
	// queueTo arms wire for to, or for the connected peer when to is nil.
	queueTo(to *udpAddr, wire []byte)
	flush() error
}

// udpAddr is a datagram sender's address kept past the receive round that
// produced it, in the form the platform's I/O replies to without
// allocating: the raw sockaddr on the batched path, the net.Addr ReadFrom
// returned on the portable one.
type udpAddr struct {
	raw  [28]byte // room for a sockaddr_in6, the largest a UDP socket yields
	rawn uint8
	addr net.Addr
}

// udpJob is one slow-path query handed to the worker pool.
type udpJob struct {
	q    *dnswire.Message
	addr net.Addr
}

// udpListener is the state of one ServeUDP call: the socket, its I/O, the
// admission semaphore and worker ring of the slow path, and the relay when
// the server has a router behind it.
type udpListener struct {
	s    *Server
	conn net.PacketConn
	io   udpIO
	sem  chan struct{}
	// jobs is the ring feeding the worker pool. Its capacity equals the
	// admission bound and a sem slot is always acquired before enqueueing,
	// so the send in enqueue can never block its caller.
	jobs  chan udpJob
	relay *udpRelay // nil without a WireRouter or a real UDP socket
}

// ServeUDP serves queries from conn until ctx is cancelled or the
// connection fails. Compatible queries are answered inline from the wire
// fast path (pre-packed cache bytes, batched sends) or, when a WireRouter
// names a remote owner, relayed to it as raw datagrams (relay.go);
// everything else is parsed and fed to a fixed pool of udpWorkers
// goroutines through a ring bounded by maxUDPInflight — excess queries are
// shed with SERVFAIL + EDE 23. Responses never exceed the client's
// advertised EDNS buffer size: an oversized answer is sent with TC=1 and an
// emptied answer section instead (see packUDPResponse).
func (s *Server) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	l := &udpListener{
		s:    s,
		conn: conn,
		io:   newUDPIO(conn, udpBatchSize),
		sem:  make(chan struct{}, maxUDPInflight),
		jobs: make(chan udpJob, maxUDPInflight),
	}
	var wg sync.WaitGroup
	for w := 0; w < udpWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range l.jobs {
				if resp := s.respond(ctx, TransportUDP, j.q); resp != nil {
					s.writeUDP(conn, j.addr, resp, j.q)
				}
				<-l.sem
			}
		}()
	}
	defer wg.Wait()
	defer close(l.jobs)
	if uc, ok := conn.(*net.UDPConn); ok && s.router != nil {
		l.relay = newUDPRelay(l, uc, s.router)
		// Runs before close(jobs): the relay's goroutines re-dispatch
		// failed forwards onto the ring.
		defer l.relay.close()
	}

	for {
		n, err := l.io.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		s.m.batchRounds.Inc()
		s.m.batchDatagrams.Add(uint64(n))
		for i := 0; i < n; i++ {
			l.serveDatagram(i)
		}
		if l.relay != nil {
			l.relay.flush()
		}
		if err := l.io.flush(); err != nil && ctx.Err() == nil {
			s.m.errors[TransportUDP].Inc()
		}
	}
}

// serveDatagram answers one datagram through the serve core, in this
// round's batch where it can. The UDP door's own: a datagram longer than a
// slot is FORMERR, a declined query may hop to its remote owner (relay.go),
// a parsed one is shed in the batch or goes to the worker ring.
func (l *udpListener) serveDatagram(i int) {
	s, io := l.s, l.io
	data := io.in(i)
	if io.oversized(i) {
		s.m.errors[TransportUDP].Inc()
		l.formerr(i, data)
		return
	}
	var hop func(dnswire.WireQuery) bool
	if l.relay != nil {
		hop = func(wq dnswire.WireQuery) bool { return l.relay.forward(i, wq) }
	}
	wire, q, err := s.serveQuery(TransportUDP, data, 0, io.respBuf(i), hop)
	if err != nil {
		l.formerr(i, data)
		return
	}
	s.m.queries[TransportUDP].Inc()
	switch {
	case wire != nil:
		io.queue(i, wire)
	case q == nil: // relayed
	case !l.admit():
		// A shed reply leaves in this round's batch, so past capacity a
		// datagram costs neither a net.Addr nor a syscall.
		if wire, ok := s.packUDP(udpShedReply(q), q, io.respBuf(i)); ok {
			io.queue(i, wire)
		}
	default:
		l.jobs <- udpJob{q: q, addr: io.addr(i)}
	}
}

// formerr answers datagram i, which does not parse or is longer than any
// query the server accepts: a datagram we cannot serve still deserves an
// answer when its ID is readable, FORMERR with the ID echoed and no OPT
// (RFC 1035), so a broken client fails fast instead of timing out. A
// datagram with QR set is a response and gets no answer (errResponse).
func (l *udpListener) formerr(i int, data []byte) {
	if len(data) >= 2 && !isResponse(data) {
		l.io.queue(i, appendFORMERR(l.io.respBuf(i), data))
	}
}

// redispatch serves a query the relay gave back through the serve core, off
// the read loop, with a send of its own. It was counted when it arrived.
func (l *udpListener) redispatch(data []byte, addr net.Addr) {
	bufp := udpReplyPool.Get().(*[]byte)
	defer udpReplyPool.Put(bufp)
	wire, q, err := l.s.serveQuery(TransportUDP, data, 0, (*bufp)[:0], nil)
	switch {
	case err != nil: // ScanQuery took it, so Unpack does
	case wire != nil:
		if _, err := l.conn.WriteTo(wire, addr); err != nil {
			l.s.m.errors[TransportUDP].Inc()
		}
	case !l.admit():
		l.s.writeUDP(l.conn, addr, udpShedReply(q), q)
	default:
		l.jobs <- udpJob{q: q, addr: addr}
	}
}

// admit takes a worker-ring slot for one parsed query, or counts a shed at
// the admission bound.
func (l *udpListener) admit() bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		l.s.m.sheds[TransportUDP].Inc()
		return false
	}
}

// udpShedReply is the answer to a datagram shed at maxUDPInflight.
func udpShedReply(q *dnswire.Message) *dnswire.Message {
	return shedReply(q, "server overloaded: UDP inflight limit reached")
}

// formerrLen is the size of the message appendFORMERR builds.
const formerrLen = 12

// appendFORMERR builds the minimal FORMERR for an unparseable message q of
// at least two bytes: a bare 12-byte header echoing the query ID (plus
// opcode, RD, and CD when the flag bytes are readable), QR set, RCODE=1,
// all counts zero.
func appendFORMERR(dst, q []byte) []byte {
	dst = append(dst, q[0], q[1])
	b2 := byte(0x80) // QR
	b3 := byte(0x01) // RCODE FORMERR
	if len(q) >= 4 {
		b2 |= q[2] & 0x79 // echo opcode and RD
		b3 |= q[3] & 0x10 // echo CD
	}
	return append(dst, b2, b3, 0, 0, 0, 0, 0, 0, 0, 0)
}

// writeUDP packs resp within the limit q advertises and sends it. UDPConn
// is safe for concurrent WriteTo, so worker goroutines write directly.
func (s *Server) writeUDP(conn net.PacketConn, addr net.Addr, resp, q *dnswire.Message) {
	bufp := udpReplyPool.Get().(*[]byte)
	defer udpReplyPool.Put(bufp)
	wire, ok := s.packUDP(resp, q, (*bufp)[:0])
	if !ok {
		return
	}
	if _, err := conn.WriteTo(wire, addr); err != nil {
		s.m.errors[TransportUDP].Inc()
	}
}

// packUDP is packUDPResponse within the limit q advertises, counting a
// truncation or a failure; ok is false when there is nothing to send.
func (s *Server) packUDP(resp, q *dnswire.Message, buf []byte) (wire []byte, ok bool) {
	var size uint16
	if q.OPT != nil {
		size = q.OPT.UDPSize
	}
	wire, truncated, err := packUDPResponse(resp, udpLimit(size), buf)
	if err != nil {
		s.m.errors[TransportUDP].Inc()
		return nil, false
	}
	if truncated {
		s.m.truncations.Inc()
	}
	return wire, true
}

// udpLimit is the largest UDP response a client permits whose OPT
// advertises size (0 without one): 512 bytes without EDNS (RFC 1035
// §2.3.4), otherwise the advertised size with the same 512-byte floor
// (RFC 6891 §6.2.3 treats smaller values as 512).
func udpLimit(size uint16) int { return max(int(size), minUDPPayload) }

// packUDPResponse encodes resp into at most limit bytes, appending to buf.
// When the full message does not fit it is truncated per RFC 2181 §9:
// TC=1 with the answer, authority, and additional sections emptied, so the
// client retries over TCP rather than acting on partial data. The OPT and
// its EDE options are kept — the diagnostic should survive truncation —
// but if even the minimal message is over the limit, first the EDE
// EXTRA-TEXT strings are dropped (the codes remain), then all EDNS options.
func packUDPResponse(resp *dnswire.Message, limit int, buf []byte) (wire []byte, truncated bool, err error) {
	if limit > maxUDPPayload {
		limit = maxUDPPayload
	}
	wire, err = resp.AppendPack(buf)
	if err != nil {
		return nil, false, err
	}
	if len(wire) <= limit {
		return wire, false, nil
	}

	trunc := *resp
	trunc.Truncated = true
	trunc.Answer, trunc.Authority, trunc.Additional = nil, nil, nil
	wire, err = trunc.AppendPack(wire[:0])
	if err != nil || len(wire) <= limit || trunc.OPT == nil {
		return wire, true, err
	}

	opt := *trunc.OPT
	trunc.OPT = &opt
	slim := make([]dnswire.Option, 0, len(opt.Options))
	for _, o := range opt.Options {
		if e, ok := o.(dnswire.EDEOption); ok {
			e.ExtraText = ""
			slim = append(slim, e)
			continue
		}
		slim = append(slim, o)
	}
	opt.Options = slim
	wire, err = trunc.AppendPack(wire[:0])
	if err != nil || len(wire) <= limit {
		return wire, true, err
	}

	opt.Options = nil
	wire, err = trunc.AppendPack(wire[:0])
	return wire, true, err
}

// oneIO is the portable single-datagram udpIO, also the fallback when the
// conn is not a real UDP socket (netsim pipes, test doubles).
type oneIO struct {
	conn  net.PacketConn
	buf   []byte // one byte longer than a slot, so a longer datagram shows
	resp  []byte
	n     int
	raddr net.Addr
	out   []byte
}

// newOneIO reads datagrams of up to slot bytes from conn.
func newOneIO(conn net.PacketConn, slot int) *oneIO {
	return &oneIO{
		conn: conn,
		buf:  make([]byte, slot+1),
		resp: make([]byte, 0, udpReplySlot),
	}
}

func (o *oneIO) recv() (int, error) {
	o.out = nil
	for {
		n, addr, err := o.conn.ReadFrom(o.buf)
		if err == nil {
			o.n, o.raddr = n, addr
			return 1, nil
		}
		// Windows fails the read of a datagram longer than buf
		// (WSAEMSGSIZE) and names no sender to answer: drop it.
		if n != len(o.buf) {
			return 0, err
		}
	}
}

func (o *oneIO) in(int) []byte              { return o.buf[:o.n] }
func (o *oneIO) oversized(int) bool         { return o.n == len(o.buf) }
func (o *oneIO) addr(int) net.Addr          { return o.raddr }
func (o *oneIO) saveAddr(_ int, a *udpAddr) { a.addr = o.raddr }
func (o *oneIO) respBuf(int) []byte         { return o.resp[:0] }
func (o *oneIO) queue(_ int, w []byte)      { o.out = w }

func (o *oneIO) flush() error {
	if o.out == nil {
		return nil
	}
	_, err := o.conn.WriteTo(o.out, o.raddr)
	o.out = nil
	return err
}
