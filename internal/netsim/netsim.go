// Package netsim provides the in-memory network substrate the reproduction
// runs on: addressable DNS endpoints exchanging real wire-format messages.
//
// The substitution this makes for the paper's real-Internet measurements is
// documented in DESIGN.md §2: resolution logic above this package is
// unchanged; only the transport is swapped. Requests and responses are
// packed to wire format and re-parsed at each hop, so the full codec runs on
// every simulated exchange exactly as it would over UDP.
//
// Addresses in IANA special-purpose ranges (loopback, private, documentation,
// multicast, ...) are unroutable, mirroring a public resolver's vantage
// point; queries to them time out. This is what turns the testbed's invalid
// glue records (Table 3 groups 6 and 7) into the lame delegations the paper
// observes.
//
// The query path is designed for many concurrent scan workers: statistics are
// lock-free atomic counters, the endpoint table is behind a read-write lock
// that writers (topology changes) take rarely, and the wire buffers for the
// per-hop pack/unpack round trips come from a pool. Fault injection (fault.go)
// adds per-endpoint state behind a mutex, touched only when a FaultPlan is
// installed; each endpoint draws from its own seeded stream, so fault
// sequences are reproducible regardless of cross-endpoint interleaving.
package netsim

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ipspecial"
)

// Errors surfaced to querying clients. A real client cannot distinguish an
// unroutable destination from a silent one — both are ErrTimeout — but the
// simulator counts them separately for diagnostics. ErrMalformed is the one
// observably different failure: a datagram arrived but could not be parsed,
// which is a network *signal* rather than silence (the EDE 23-vs-22
// distinction the resolver draws).
var (
	ErrTimeout   = errors.New("netsim: query timed out")
	ErrMalformed = errors.New("netsim: response garbled in flight")
)

// Handler processes one DNS query addressed to an endpoint.
type Handler interface {
	HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)

// HandleDNS implements Handler.
func (f HandlerFunc) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, q)
}

// Stats is a snapshot of network counters.
type Stats struct {
	Queries     uint64 // queries attempted
	Unroutable  uint64 // destinations in special-purpose ranges
	Unreachable uint64 // routable but no endpoint registered
	Lost        uint64 // dropped (loss, bursts, flaps, drop-after, latency past deadline)
	Answered    uint64 // handler produced a response
	Errors      uint64 // handler returned an error (silent server)
	Truncated   uint64 // datagram responses truncated by fault injection
	Garbled     uint64 // responses corrupted in flight
	Duplicated  uint64 // query datagrams duplicated
	Reordered   uint64 // responses delayed/overtaken by reordering
}

// Network is an in-memory internet of DNS endpoints.
type Network struct {
	mu        sync.RWMutex // guards endpoints (read-locked on the query path)
	endpoints map[netip.Addr]Handler

	seed  uint64
	fault atomic.Pointer[FaultPlan]

	queries     atomic.Uint64
	unroutable  atomic.Uint64
	unreachable atomic.Uint64
	lost        atomic.Uint64
	answered    atomic.Uint64
	errors      atomic.Uint64
	truncated   atomic.Uint64
	garbled     atomic.Uint64
	duplicated  atomic.Uint64
	reordered   atomic.Uint64
}

// New creates an empty network. seed drives the (optional) fault processes.
func New(seed uint64) *Network {
	return &Network{
		endpoints: make(map[netip.Addr]Handler),
		seed:      seed,
	}
}

// SetFaults installs (or, with nil, removes) the fault plan governing every
// exchange on the network.
func (n *Network) SetFaults(p *FaultPlan) {
	n.fault.Store(p)
}

// SetLossRate configures the probability in [0,1) that any query is dropped.
// It is a convenience wrapper over SetFaults: the loss sequence each endpoint
// sees comes from that endpoint's own stream seeded by the network seed, so
// it is reproducible in tests regardless of goroutine interleaving.
func (n *Network) SetLossRate(p float64) {
	if p <= 0 {
		n.SetFaults(nil)
		return
	}
	n.SetFaults(NewFaultPlan(n.seed, FaultProfile{Loss: p}))
}

// Register attaches handler h to addr, replacing any previous endpoint.
func (n *Network) Register(addr netip.Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints[addr] = h
}

// Deregister removes the endpoint at addr.
func (n *Network) Deregister(addr netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// HandlerAt returns the endpoint registered at addr, so chaos tooling can
// wrap a live server (e.g. a poisoning man-in-the-middle) and restore it.
func (n *Network) HandlerAt(addr netip.Addr) (Handler, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.endpoints[addr]
	return h, ok
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	return Stats{
		Queries:     n.queries.Load(),
		Unroutable:  n.unroutable.Load(),
		Unreachable: n.unreachable.Load(),
		Lost:        n.lost.Load(),
		Answered:    n.answered.Load(),
		Errors:      n.errors.Load(),
		Truncated:   n.truncated.Load(),
		Garbled:     n.garbled.Load(),
		Duplicated:  n.duplicated.Load(),
		Reordered:   n.reordered.Load(),
	}
}

// wirePool recycles the buffers the per-hop codec round trips pack into.
// Unpack copies everything it returns, so a buffer is reusable the moment
// Unpack comes back.
var wirePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// roundTrip packs m and re-parses the bytes, so the full codec runs on every
// simulated exchange. The intermediate wire image lives in a pooled buffer.
func roundTrip(m *dnswire.Message) (*dnswire.Message, error) {
	bp := wirePool.Get().(*[]byte)
	wire, err := m.AppendPack((*bp)[:0])
	if err != nil {
		wirePool.Put(bp)
		return nil, err
	}
	parsed, err := dnswire.Unpack(wire)
	*bp = wire
	wirePool.Put(bp)
	return parsed, err
}

// Exchange sends msg to the endpoint at server and returns its response and
// the simulated round-trip time: zero on a perfect network, the injected
// latency when a fault plan adds one. Clients tracking SRTT for server
// selection feed from it. The message round-trips through wire format in
// both directions so that every exchange exercises the real codec.
func (n *Network) Exchange(ctx context.Context, server netip.Addr, msg *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return n.Attempt(ctx, server, msg, 0, false)
}

// Attempt is one exchange as a client with a per-attempt timeout sees it.
// budget is that timeout: an answer whose injected latency exceeds it is a
// loss, and zero waits for any answer. Latency is virtual — compared, never
// slept, and never set against a wall-clock deadline, so a descheduled
// caller cannot turn a delivered answer into a timeout. stream selects the
// stream transport (TCP fallback): the same endpoint and fault path, but
// datagram-only faults — truncation, garbling, duplication, reordering — do
// not apply.
func (n *Network) Attempt(ctx context.Context, server netip.Addr, msg *dnswire.Message, budget time.Duration, stream bool) (*dnswire.Message, time.Duration, error) {
	n.queries.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if !ipspecial.Routable(server) {
		n.unroutable.Add(1)
		return nil, 0, ErrTimeout
	}
	n.mu.RLock()
	h, ok := n.endpoints[server]
	n.mu.RUnlock()
	if !ok {
		n.unreachable.Add(1)
		return nil, 0, ErrTimeout
	}

	var v verdict
	var st *faultState
	if plan := n.fault.Load(); plan != nil {
		var fp FaultProfile
		st, fp = plan.stateFor(server)
		v = st.draw(fp, stream)
	}
	if v.drop {
		n.lost.Add(1)
		return nil, 0, ErrTimeout
	}
	if budget > 0 && v.latency > budget {
		n.lost.Add(1)
		return nil, 0, ErrTimeout
	}

	parsed, err := roundTrip(msg)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.HandleDNS(ctx, parsed)
	if err != nil || resp == nil {
		n.errors.Add(1)
		return nil, 0, ErrTimeout
	}
	if v.duplicate {
		// The duplicated query reaches the handler a second time (advancing
		// any per-query state); the extra response is discarded in flight.
		n.duplicated.Add(1)
		if dup, err := roundTrip(msg); err == nil {
			h.HandleDNS(ctx, dup)
		}
	}
	out, err := roundTrip(resp)
	if err != nil {
		return nil, 0, err
	}
	if v.truncate {
		n.truncated.Add(1)
		tc := *out
		tc.Truncated = true
		tc.Answer, tc.Authority, tc.Additional = nil, nil, nil
		out = &tc
	}
	if v.garble {
		n.garbled.Add(1)
		return nil, v.latency, ErrMalformed
	}
	if v.reorder {
		n.reordered.Add(1)
		// This response is delayed past the client's patience; the one a
		// previous reorder delayed (if any) arrives in its place, answering
		// the wrong question.
		out = st.swapPending(out)
		if out == nil {
			n.lost.Add(1)
			return nil, v.latency, ErrTimeout
		}
	}
	n.answered.Add(1)
	return out, v.latency, nil
}

// --- behaviour endpoints: the broken servers observed in the wild scan ---

// Unresponsive returns a handler that never answers; clients time out. This
// models the silent lame delegations of §4.2 items 1–2.
func Unresponsive() Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return nil, ErrTimeout
	})
}

// StaticRCode returns a handler that answers every query with rcode and no
// records — the REFUSED/SERVFAIL/NOTAUTH nameservers of §4.2.
func StaticRCode(rcode dnswire.RCode) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RCode = rcode
		return r, nil
	})
}

// NoEDNS wraps h and strips the OPT record from its responses, modelling the
// pre-EDNS servers behind §4.2 item 6 ("Invalid Data": servers that neither
// return FORMERR nor echo the OPT record).
//
// Dropping the OPT also drops the extended-RCODE bits it would have carried
// (RFC 6891 §6.1.3): the response RCODE is clamped to its low 4 bits, exactly
// as a pre-EDNS server that never knew the upper bits would answer. The
// wrapped handler's message is not mutated — handlers may return shared or
// cached responses.
func NoEDNS(h Handler) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp, err := h.HandleDNS(ctx, q)
		if err != nil {
			return nil, err
		}
		stripped := *resp
		stripped.OPT = nil
		stripped.RCode &= 0xF
		return &stripped, nil
	})
}

// MismatchedQuestion wraps h and rewrites the question section of responses
// to a different name, producing the "Mismatched question from the
// authoritative server" condition (§4.2 item 6).
func MismatchedQuestion(h Handler) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp, err := h.HandleDNS(ctx, q)
		if err != nil {
			return nil, err
		}
		for i := range resp.Question {
			resp.Question[i].Name = dnswire.MustName("mismatched.invalid.")
		}
		return resp, nil
	})
}

// Flaky alternates between h and broken on successive queries, modelling the
// inconsistent resolutions of §4.2 item 12 (dual signature sets: NOERROR when
// the valid pair is served, SERVFAIL otherwise). The turn counter is atomic,
// so concurrent scan workers never contend on a lock here.
func Flaky(h, broken Handler) Handler {
	var turn atomic.Int64
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if turn.Add(1)%2 == 0 {
			return broken.HandleDNS(ctx, q)
		}
		return h.HandleDNS(ctx, q)
	})
}
