package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// The wire relay: a UDP query whose owner is a remote peer (WireRouter) is
// forwarded as the datagram it arrived in, with a forward ID patched over
// the client's, on one connected socket per peer; the peer's answer comes
// back on that socket, gets the client's ID back, and leaves through the
// listener. No Message is built and no goroutine is woken per query, and
// every socket moves a round's datagrams in one batched send: forwards are
// flushed by the read loop once per receive round, answers by the peer's
// reader goroutine once per round of its own. What the relay cannot finish
// — no answer in time, a peer socket error — goes to the worker ring as if
// the relay had never seen it.

// relayTicks is how many sweeps the router's RelayTimeout is cut into: a
// pending query expires between one timeout and 1+1/relayTicks of it.
const relayTicks = 4

// relayMaxQuery bounds the saved copy of a relayed query. Nothing ScanQuery
// accepts comes near it (header, one uncompressed name, an empty OPT).
const relayMaxQuery = minUDPPayload

// relaySockBuf is the buffer size asked for on a peer socket, which carries
// what the parsed forward spreads over a socket per concurrent query.
const relaySockBuf = 1 << 20

// relaySlot is one pending relayed query.
type relaySlot struct {
	live  bool
	fid   uint16 // forward ID; its low bits are the slot index
	cid   uint16 // the client's ID
	n     uint16 // bytes of query in use
	qlen  uint16 // length of the question section, query[12:12+qlen]
	tick  uint32 // relay tick at send time
	from  udpAddr
	peer  RelayPeer
	query [relayMaxQuery]byte // the client's datagram, its own ID in place
}

// relayTable is the fixed pending table of one peer, indexed by forward ID.
type relayTable struct {
	mu    sync.Mutex
	slots []relaySlot // power-of-two length
	next  uint16      // last forward ID handed out
	live  int
}

// add records datagram i of in as pending on rp and returns its forward ID.
// ok=false means the slot the next ID falls on still waits for its answer.
func (t *relayTable) add(in udpReceiver, i int, wq dnswire.WireQuery, rp RelayPeer, tick uint32) (fid uint16, ok bool) {
	data := in.in(i)
	qlen := len(data) - 12
	if wq.HasEDNS {
		qlen -= 11 // ScanQuery admits only an empty OPT behind the question
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	fid = t.next
	s := &t.slots[int(fid)&(len(t.slots)-1)]
	if s.live {
		return 0, false
	}
	s.live, s.fid, s.cid, s.tick, s.peer = true, fid, wq.ID, tick, rp
	s.n, s.qlen = uint16(copy(s.query[:], data)), uint16(qlen)
	in.saveAddr(i, &s.from)
	t.live++
	return fid, true
}

// claim matches a datagram from the peer to the pending query it answers
// and removes that query from the table. The forward ID alone is not
// enough — at a busy router it wraps inside one timeout, so a late answer
// can meet its ID on another client's query — hence the answer must also
// echo the saved question and the RD and CD bits.
func (t *relayTable) claim(ans []byte, from *udpAddr) (cid uint16, rp RelayPeer, ok bool) {
	if len(ans) < 12 || ans[2]&0x80 == 0 || binary.BigEndian.Uint16(ans[4:]) != 1 {
		return 0, nil, false
	}
	fid := binary.BigEndian.Uint16(ans)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.slots[int(fid)&(len(t.slots)-1)]
	if !s.live || s.fid != fid ||
		(ans[2]^s.query[2])&0x01 != 0 || (ans[3]^s.query[3])&0x10 != 0 ||
		!echoesQuestion(ans, s.query[12:12+s.qlen]) {
		return 0, nil, false
	}
	*from, cid, rp = s.from, s.cid, s.peer
	s.live, s.peer = false, nil
	t.live--
	return cid, rp, true
}

// echoesQuestion reports whether msg carries question — an uncompressed
// name, type and class — as its own, letter case in the name aside.
func echoesQuestion(msg, question []byte) bool {
	if len(msg) < 12+len(question) {
		return false
	}
	echo := msg[12 : 12+len(question)]
	name := len(question) - 4
	for i, c := range question {
		if e := echo[i]; e != c {
			// Label lengths are below 64, so folding bit 0x20 can only
			// equate two letters.
			if i >= name || e|0x20 != c|0x20 || c|0x20 < 'a' || c|0x20 > 'z' {
				return false
			}
		}
	}
	return true
}

// take removes and returns the pending queries at least minAge ticks old.
func (t *relayTable) take(now, minAge uint32) []relaySlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live == 0 {
		return nil
	}
	var out []relaySlot
	for i := range t.slots {
		if s := &t.slots[i]; s.live && now-s.tick >= minAge {
			out = append(out, *s)
			s.live, s.peer = false, nil
			t.live--
		}
	}
	return out
}

func (t *relayTable) idle() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live == 0
}

// relayPeer is the relay's end of one peer: a connected socket whose send
// half the listener's read loop drives and whose receive half the peer's
// own reader goroutine drives.
type relayPeer struct {
	addr  netip.AddrPort
	conn  *net.UDPConn
	recv  udpReceiver
	send  udpSender
	out   udpSender // the reader's sender on the listener socket
	table relayTable

	// Read loop only.
	used   uint32 // relay tick of the last forward
	queued bool   // in udpRelay.dirty, waiting for flush
}

// udpRelay is the wire relay of one UDP listener.
type udpRelay struct {
	l      *udpListener
	lconn  *net.UDPConn
	router WireRouter

	// peers is replaced, never mutated, and only by the read loop; the
	// sweeper reads it.
	peers atomic.Pointer[[]*relayPeer]
	dirty []*relayPeer // peers with forwards queued this round (read loop only)

	tick atomic.Uint32 // advanced by the sweeper, relayTicks times per timeout
	stop chan struct{}
	wg   sync.WaitGroup // the sweeper and every peer reader
}

func newUDPRelay(l *udpListener, lconn *net.UDPConn, router WireRouter) *udpRelay {
	r := &udpRelay{l: l, lconn: lconn, router: router, stop: make(chan struct{})}
	r.peers.Store(new([]*relayPeer))
	interval := router.RelayTimeout() / relayTicks
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	r.wg.Add(1)
	go r.sweep(interval)
	return r
}

// forward relays received datagram i, which scanned as wq, when the router
// names a remote peer for it. false leaves the datagram to the parsed path.
func (r *udpRelay) forward(i int, wq dnswire.WireQuery) bool {
	data := r.l.io.in(i)
	if len(data) > relayMaxQuery {
		return false
	}
	rp, ok := r.router.RouteWire(wq)
	if !ok {
		return false
	}
	tick := r.tick.Load()
	p := r.peer(rp.Addr(), tick)
	if p == nil {
		rp.Done(RelayAbandoned)
		return false
	}
	fid, ok := p.table.add(r.l.io, i, wq, rp, tick)
	if !ok {
		rp.Done(RelayAbandoned)
		return false
	}
	// The receive slot stays untouched until the next recv, and flush runs
	// before it: the datagram is forwarded from where it arrived.
	binary.BigEndian.PutUint16(data, fid)
	p.send.queueTo(nil, data)
	if !p.queued {
		p.queued = true
		r.dirty = append(r.dirty, p)
	}
	p.used = tick
	r.l.s.m.relayed.Inc()
	return true
}

// flush sends the round's forwards, one batched send per peer. A failed
// send (ECONNREFUSED from a dead peer's port) fails everything pending
// there.
func (r *udpRelay) flush() {
	for _, p := range r.dirty {
		p.queued = false
		if err := p.send.flush(); err != nil {
			r.fail(p.table.take(0, 0), relayPeerError)
		}
	}
	r.dirty = r.dirty[:0]
}

// peer returns the relay's end of addr, dialling it on first use.
func (r *udpRelay) peer(addr netip.AddrPort, tick uint32) *relayPeer {
	peers := *r.peers.Load()
	for _, p := range peers {
		if p.addr == addr {
			return p
		}
	}
	p := r.dial(addr, tick)

	// A new peer means membership changed: the moment to let go of peers
	// nothing was forwarded to for two timeouts (a replica that rejoined
	// on another port leaves its old socket behind).
	kept := make([]*relayPeer, 0, len(peers)+1)
	for _, old := range peers {
		if tick-old.used > 2*relayTicks && old.table.idle() {
			old.conn.Close() // ends its reader
			continue
		}
		kept = append(kept, old)
	}
	if p != nil {
		kept = append(kept, p)
	}
	r.peers.Store(&kept)
	return p
}

// dial connects a socket to addr and starts its reader; nil when the
// address cannot be dialled.
func (r *udpRelay) dial(addr netip.AddrPort, tick uint32) *relayPeer {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil
	}
	recv, send, err := newPeerIO(conn, udpBatchSize)
	if err != nil {
		conn.Close()
		return nil
	}
	out, err := newUDPSender(r.lconn, udpBatchSize)
	if err != nil {
		conn.Close()
		return nil
	}
	// Best effort: the kernel may cap the request.
	_ = conn.SetReadBuffer(relaySockBuf)
	_ = conn.SetWriteBuffer(relaySockBuf)
	p := &relayPeer{addr: addr, conn: conn, recv: recv, send: send, out: out, used: tick}
	// One slot per query the listener admits (a power of two, as the
	// table's forward-ID masking needs).
	p.table.slots = make([]relaySlot, maxUDPInflight)
	r.wg.Add(1)
	go r.readPeer(p)
	return p
}

// readPeer takes answers off p's socket until it is closed: each round's
// answers get their clients' IDs back and leave through the listener in
// one batched send.
func (r *udpRelay) readPeer(p *relayPeer) {
	defer r.wg.Done()
	m := r.l.s.m
	var froms [udpBatchSize]udpAddr
	var answered [udpBatchSize]RelayPeer
	for {
		n, err := p.recv.recv()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// An ICMP error the kernel kept for this socket: the peer's
			// port is closed or unreachable.
			r.fail(p.table.take(0, 0), relayPeerError)
			continue
		}
		m.relayRounds.Inc()
		m.relayDatagrams.Add(uint64(n))
		sent := 0
		for i := 0; i < n; i++ {
			ans := p.recv.in(i)
			cid, rp, ok := p.table.claim(ans, &froms[sent])
			if !ok {
				m.relayFailures[relayUnmatched].Inc()
				continue
			}
			binary.BigEndian.PutUint16(ans, cid)
			p.out.queueTo(&froms[sent], ans)
			answered[sent] = rp
			sent++
		}
		if err := p.out.flush(); err != nil {
			m.errors[TransportUDP].Inc()
		}
		for i := 0; i < sent; i++ {
			answered[i].Done(RelayAnswered)
			answered[i] = nil
		}
	}
}

// sweep advances the relay clock and expires pending queries, so a silent
// peer is noticed without any later traffic to it.
func (r *udpRelay) sweep(interval time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		now := r.tick.Add(1)
		for _, p := range *r.peers.Load() {
			// Sent during tick k means sent up to one interval before
			// sweep k+1: relayTicks+1 ticks on, a full timeout has passed.
			r.fail(p.table.take(now, relayTicks+1), relayExpired)
		}
	}
}

// fail reports the taken queries to the router as failed forwards — all of
// them first, so a peer at its failure limit is out of rotation before the
// first retry looks for an owner — and hands each back to the listener,
// which serves it like a query the relay never saw.
func (r *udpRelay) fail(failed []relaySlot, reason string) {
	m := r.l.s.m
	for i := range failed {
		failed[i].peer.Done(RelayFailed)
		m.relayFailures[reason].Inc()
	}
	for i := range failed {
		r.l.redispatch(failed[i].query[:failed[i].n], failed[i].from.netAddr())
	}
}

// close stops the sweeper and every reader, then gives up what is still
// pending. It must return before the worker ring closes.
func (r *udpRelay) close() {
	close(r.stop)
	peers := *r.peers.Load()
	for _, p := range peers {
		p.conn.Close()
	}
	r.wg.Wait()
	for _, p := range peers {
		for _, e := range p.table.take(0, 0) {
			e.peer.Done(RelayAbandoned)
		}
	}
}
