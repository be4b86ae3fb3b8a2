package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// epoch anchors every benchmark timestamp; times are int64 nanoseconds since
// it, read from the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// pendingSlot is one in-flight query, indexed by its DNS ID. The sender
// fills it before writing and the receiver clears it after reading; the two
// are ordered only by the kernel, so the fields are atomics.
type pendingSlot struct {
	due  atomic.Int64 // ns the query was due (open loop) or sent (closed loop); 0 = free
	sent atomic.Int64
	qi   atomic.Int32
}

// phaseStats accumulates one phase's outcome across all connections. The
// counters are live (the capacity monitor reads verified per slice); the
// histograms are merged from the clients when the phase ends.
type phaseStats struct {
	attempted  atomic.Uint64 // queries the phase tried to send
	verified   atomic.Uint64 // answers that arrived and matched
	failed     atomic.Uint64 // timeouts, parse failures, wrong ID/question, reference mismatches
	sendErrors atomic.Uint64

	mu       sync.Mutex
	firstErr string
	// noRef skips the reference comparison: warm-up's first ask of a name
	// legitimately differs from the hit-state answer the table holds.
	noRef bool

	lat     []*hist  // per time slice, from due time
	late    []*hist  // per time slice, sender lateness
	rtt     *hist    // send → receive, all slices
	samples [][]byte // a few response messages, for the codec timings
}

// latencies is the histogram set one client records into under its own lock.
type latencies struct {
	lat, late []*hist
	rtt       *hist
}

func newLatencies(slices int) latencies {
	l := latencies{rtt: newHist()}
	for i := 0; i < slices; i++ {
		l.lat = append(l.lat, newHist())
		l.late = append(l.late, newHist())
	}
	return l
}

func newPhaseStats(slices int) *phaseStats {
	l := newLatencies(slices)
	return &phaseStats{lat: l.lat, late: l.late, rtt: l.rtt}
}

// collect folds a client's histograms and samples into st and resets them.
func (st *phaseStats) collect(c *client) {
	for i := range st.lat {
		st.lat[i].merge(c.h.lat[i])
		st.late[i].merge(c.h.late[i])
	}
	st.rtt.merge(c.h.rtt)
	st.samples = append(st.samples, c.samples...)
	c.h, c.samples = newLatencies(len(st.lat)), nil
}

func (st *phaseStats) fail(format string, args ...any) {
	st.failed.Add(1)
	st.mu.Lock()
	if st.firstErr == "" {
		st.firstErr = fmt.Sprintf(format, args...)
	}
	st.mu.Unlock()
}

// client is one benchmark connection slot: a UDP socket, or a TCP connection
// that is closed and re-dialled every redial queries.
type client struct {
	p       params
	in      *inputs
	network string
	addr    string
	slot    int // IDs sent are ≡ slot (mod nconn), so no two in-flight queries share one
	nconn   int
	seq     uint32
	pend    []pendingSlot
	scratch []byte
	tracer  *tracer

	mu      sync.Mutex // guards h and samples: the sender and the receivers of one slot share them
	h       latencies
	samples [][]byte
}

func newClient(p params, in *inputs, s *stack, slot, nconn int) *client {
	return &client{
		p: p, in: in, network: s.network, addr: s.addr, slot: slot, nconn: nconn,
		pend: make([]pendingSlot, 1<<16), scratch: make([]byte, 0, 512), tracer: s.tracer,
		h: newLatencies(p.slices),
	}
}

// wire is one dialled connection with message framing.
type wire struct {
	conn net.Conn
	br   *bufio.Reader // TCP only
	buf  []byte
}

func (c *client) dial() (*wire, error) {
	conn, err := net.Dial(c.network, c.addr)
	if err != nil {
		return nil, err
	}
	w := &wire{conn: conn, buf: make([]byte, 4096)}
	if uc, ok := conn.(*net.UDPConn); ok {
		setSockBuf(uc)
	} else {
		w.br = bufio.NewReaderSize(conn, 64<<10)
	}
	return w, nil
}

// recv reads one whole DNS message.
func (w *wire) recv() ([]byte, error) {
	if w.br == nil {
		n, err := w.conn.Read(w.buf)
		return w.buf[:n], err
	}
	var l [2]byte
	if _, err := io.ReadFull(w.br, l[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(l[:]))
	if n > len(w.buf) {
		w.buf = make([]byte, n)
	}
	_, err := io.ReadFull(w.br, w.buf[:n])
	return w.buf[:n], err
}

// send stamps the next ID into a copy of query qi, registers it as pending
// against due, and writes it in one call. A slot still occupied from 65,536
// sends ago is a query that was never answered. It reports whether the write
// succeeded.
func (c *client) send(w *wire, st *phaseStats, qi int, due int64) bool {
	id := uint16(c.seq*uint32(c.nconn) + uint32(c.slot))
	c.seq++
	msg := append(c.scratch[:0], c.in.framed[qi]...)
	binary.BigEndian.PutUint16(msg[2:], id)
	slot := &c.pend[id]
	if slot.due.Load() != 0 {
		st.fail("query %d (%s) timed out", slot.qi.Load(), c.in.names[slot.qi.Load()])
	}
	slot.qi.Store(int32(qi))
	slot.sent.Store(nowNS())
	slot.due.Store(due)
	st.attempted.Add(1)
	if w.br == nil {
		msg = msg[2:]
	}
	if _, err := w.conn.Write(msg); err != nil {
		st.sendErrors.Add(1)
		slot.due.Store(0)
		st.fail("send: %v", err)
		return false
	}
	return true
}

// settle matches one received message to its pending query, checks it, and
// records its latency into the slice its due time falls in. It reports
// whether the message answered a pending query.
func (c *client) settle(st *phaseStats, resp []byte, sliceOf func(due int64) int) bool {
	now := nowNS()
	if len(resp) < 2 {
		st.fail("runt response")
		return false
	}
	id := binary.BigEndian.Uint16(resp)
	slot := &c.pend[id]
	due := slot.due.Swap(0)
	if due == 0 {
		st.fail("response with ID %d answers no pending query", id)
		return false
	}
	qi, sent := int(slot.qi.Load()), slot.sent.Load()
	got, err := checkWire(c.in.framed[qi][2:], resp)
	switch {
	case err != nil:
		st.fail("%s: %v", c.in.names[qi], err)
	case !st.noRef && c.in.refOK[qi] && got != c.in.ref[qi]:
		st.fail("%s: got rcode %d EDE %v, reference rcode %d EDE %v%s", c.in.names[qi],
			got.rcode, got.codes[:got.n], c.in.ref[qi].rcode, c.in.ref[qi].codes[:c.in.ref[qi].n], edeTexts(resp))
	default:
		st.verified.Add(1)
	}
	c.mu.Lock()
	c.h.lat[sliceOf(due)].add(now - due)
	c.h.rtt.add(now - sent)
	if len(c.samples) < 256 {
		c.samples = append(c.samples, append([]byte(nil), resp...))
	}
	c.mu.Unlock()
	if c.tracer != nil && c.tracer.on.Load() {
		c.tracer.record(span{ID: c.tracer.next.Add(1), Parent: -1, Seam: seamClient,
			Key: spanKey(id, c.in.names[qi]), Start: sent, End: now})
	}
	return true
}

// timeoutPending counts every query still pending as failed.
func (c *client) timeoutPending(st *phaseStats) {
	for i := range c.pend {
		if c.pend[i].due.Swap(0) != 0 {
			qi := c.pend[i].qi.Load()
			st.fail("query %d (%s) timed out", qi, c.in.names[qi])
		}
	}
}

// closedLoop keeps window queries outstanding on one connection until the
// clock passes until or next runs dry: one goroutine sends and receives, so
// the offered load is whatever the server sustains. tcp re-dials after
// p.redial queries, once the window has drained.
func (c *client) closedLoop(st *phaseStats, next func() (int, bool), until int64, window int) {
	w, err := c.dial()
	if err != nil {
		st.fail("dial: %v", err)
		return
	}
	defer func() { w.conn.Close() }()
	deadline := epoch.Add(time.Duration(until) + c.p.timeout)
	_ = w.conn.SetDeadline(deadline)
	inflight, onConn, stopped := 0, 0, false
	for {
		for inflight < window && !stopped {
			if w.br != nil && onConn >= c.p.redial {
				if inflight > 0 {
					break // drain, then re-dial
				}
				w.conn.Close()
				if w, err = c.dial(); err != nil {
					st.fail("re-dial: %v", err)
					return
				}
				_ = w.conn.SetDeadline(deadline)
				onConn = 0
			}
			qi, ok := next()
			now := nowNS()
			if !ok || now >= until {
				stopped = true
				break
			}
			if c.send(w, st, qi, now) {
				inflight++
			}
			onConn++
		}
		if inflight == 0 {
			return
		}
		resp, err := w.recv()
		if err != nil {
			c.timeoutPending(st)
			return
		}
		if c.settle(st, resp, func(int64) int { return 0 }) {
			inflight--
		}
	}
}

// outstanding caps the queries the paced sender keeps in flight on one
// connection. transport sheds a TCP stream's queries past MaxPipeline (64)
// and a UDP listener's past MaxUDPInflight (512, and there are two client
// sockets) with EDE 23; a sender that woke late would otherwise push its
// whole backlog past those limits at once and count the sheds as failures.
func (c *client) outstanding() int64 {
	if c.network == "tcp" {
		return 48
	}
	return 192
}

// schedule is one connection's fixed-rate send plan: query k is due at
// start + k·interval, up to end, and belongs to the time slice its due time
// falls in. It is pure arithmetic, so it is tested on a fake clock.
type schedule struct {
	start, end int64 // ns since epoch
	interval   time.Duration
	// phaseStart and phaseLen place due times into slices equal slices of
	// the whole phase, which every connection shares.
	phaseStart, phaseLen int64
	slices               int
}

// due returns query k's due time, or false once the schedule has ended.
func (s schedule) due(k int64) (int64, bool) {
	d := s.start + k*int64(s.interval)
	return d, d < s.end
}

// slice returns the time slice a due time belongs to.
func (s schedule) slice(due int64) int {
	return min(max(int((due-s.phaseStart)*int64(s.slices)/s.phaseLen), 0), s.slices-1)
}

// lateness is how long after its due time a query was handed to the socket;
// a sender that woke early has none.
func lateness(due, now int64) int64 { return max(now-due, 0) }

// generation is one connection's share of an open-loop phase: the sender
// counts what it wrote, the receiver what it matched, and the receiver
// leaves once the sender is done and the counts agree.
type generation struct {
	w        *wire
	sent     atomic.Int64
	answered atomic.Int64
	done     atomic.Bool
}

// openLoop sends this connection's share of a fixed-rate schedule: the
// sender sleeps to each due time (it never spins, so it cannot starve the
// server it shares cores with), and latency counts from the due time, so a
// stall is charged to every query it delayed. One receiver goroutine per
// dialled connection settles the answers.
func (c *client) openLoop(st *phaseStats, next func() (int, bool), sched schedule) {
	var recv sync.WaitGroup
	defer recv.Wait()
	var g *generation
	finish := func() {
		if g == nil {
			return
		}
		_ = g.w.conn.SetReadDeadline(time.Now().Add(c.p.timeout))
		g.done.Store(true)
		if g.answered.Load() == g.sent.Load() {
			_ = g.w.conn.SetReadDeadline(time.Now()) // the receiver may be parked in Read: wake it
		}
		g = nil
	}
	defer finish()

	onConn, released := 0, false
	for k := int64(0); ; k++ {
		due, ok := sched.due(k)
		if !ok {
			return
		}
		if g == nil || (c.network == "tcp" && onConn >= c.p.redial) {
			finish()
			w, err := c.dial()
			if err != nil {
				st.fail("dial: %v", err)
				return
			}
			g, onConn = &generation{w: w}, 0
			recv.Add(1)
			go c.receive(st, g, &recv, sched.slice)
		}
		now := nowNS()
		if d := due - now; d > 0 {
			time.Sleep(time.Duration(d))
			now = nowNS()
		}
		// Like a real pipelining client, the sender holds a query back while
		// the connection has its fill outstanding. The wait is charged to the
		// query: it is still timed from its due time. A connection that stops
		// answering releases the sender after the query timeout, for good;
		// its queries then time out.
		for !released && g.sent.Load()-g.answered.Load() >= c.outstanding() {
			if released = nowNS()-now >= int64(c.p.timeout); !released {
				time.Sleep(100 * time.Microsecond)
			}
		}
		now = nowNS()
		qi, ok := next()
		if !ok {
			return
		}
		c.mu.Lock()
		c.h.late[sched.slice(due)].add(lateness(due, now))
		c.mu.Unlock()
		if c.send(g.w, st, qi, due) {
			g.sent.Add(1)
		}
		onConn++
	}
}

func (c *client) receive(st *phaseStats, g *generation, wg *sync.WaitGroup, sliceOf func(int64) int) {
	defer wg.Done()
	defer g.w.conn.Close()
	for {
		resp, err := g.w.recv()
		if err != nil {
			// The read deadline passed with queries unanswered, or the
			// connection broke; what stays pending is counted as timed
			// out when the phase ends.
			return
		}
		if c.settle(st, resp, sliceOf) {
			g.answered.Add(1)
		}
		if g.done.Load() && g.answered.Load() == g.sent.Load() {
			return
		}
	}
}

// edeTexts renders a mismatching response's EDE options with their
// EXTRA-TEXT for the failure message; the program's own codec is good enough
// for a diagnostic.
func edeTexts(resp []byte) string {
	m, err := dnswire.Unpack(resp)
	if err != nil {
		return ""
	}
	s := ""
	for _, e := range m.EDEs() {
		s += "; " + e.String()
	}
	return s
}
