package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// seam is a public boundary the benchmark decorates. Spans are recorded only
// here, from the benchmark's own files; nothing inside the program is timed.
type seam uint8

const (
	seamClient        seam = iota // load generator: send → receive of one query
	seamWire                      // transport.Config.Wire: a ServeWire hit
	seamHandle                    // transport.Config.Handler: HandleDNS
	seamReplicaWire               // the same two seams on cluster_hot's remote replica
	seamReplicaHandle             //
	seamUpstream                  // forwarder.Upstream handed to frontend.New / AddLocal
	seamEndpoint                  // netsim.Handler of an authoritative endpoint
	numSeams
)

var seamNames = [numSeams]string{
	"client.rtt", "frontdoor.wire", "frontdoor.handle",
	"replica.wire", "replica.handle", "resolver.resolve", "netsim.endpoint",
}

// span is one timed call at a seam. Key identifies the query: the DNS ID in
// the high half where the seam can see it, a hash of the qname in the low
// half. Parent is the enclosing span's ID, carried in the context from the
// Handler seam inward; -1 until link resolves it (or for good, for a root).
type span struct {
	ID, Parent int32
	Seam       seam
	Key        uint64
	Start, End int64 // nowNS(): the load generator's clock, so client and server spans compare
}

func (s span) dur() int64 { return s.End - s.Start }

func qnameHash(n dnswire.Name) uint32 {
	h := fnv.New32a()
	h.Write([]byte(n))
	return h.Sum32()
}

func spanKey(id uint16, n dnswire.Name) uint64 { return uint64(id)<<32 | uint64(qnameHash(n)) }

// tracer collects spans in memory, one buffer per seam so the seams do not
// contend. It is switched on for the traced phase only; a decorator whose
// tracer is off forwards the call and records nothing.
type tracer struct {
	on   atomic.Bool
	next atomic.Int32
	bufs [numSeams]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) record(s span) {
	b := &t.bufs[s.Seam]
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

type parentKey struct{}

func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(parentKey{}).(int32); ok {
		return id
	}
	return -1
}

// tracedHandler decorates a netsim.Handler seam.
type tracedHandler struct {
	t    *tracer
	seam seam
	next netsim.Handler
}

func (h tracedHandler) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if !h.t.on.Load() || len(q.Question) != 1 {
		return h.next.HandleDNS(ctx, q)
	}
	s := span{ID: h.t.next.Add(1), Parent: parentOf(ctx), Seam: h.seam, Start: nowNS()}
	s.Key = spanKey(q.ID, q.Question[0].Name)
	if h.seam == seamEndpoint {
		// The resolver's own transaction ID says nothing about the client's.
		s.Key = uint64(qnameHash(q.Question[0].Name))
	}
	resp, err := h.next.HandleDNS(context.WithValue(ctx, parentKey{}, s.ID), q)
	s.End = nowNS()
	h.t.record(s)
	return resp, err
}

// tracedWire decorates a transport.WireServer seam; only hits are recorded,
// a miss goes on to the Handler seam.
type tracedWire struct {
	t    *tracer
	seam seam
	next transport.WireServer
}

func (w tracedWire) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	if !w.t.on.Load() {
		return w.next.ServeWire(q, limit, dst)
	}
	start := nowNS()
	out, ok := w.next.ServeWire(q, limit, dst)
	if ok {
		w.t.record(span{ID: w.t.next.Add(1), Parent: -1, Seam: w.seam, Key: spanKey(q.ID, q.Name), Start: start, End: nowNS()})
	}
	return out, ok
}

// tracedUpstream decorates the forwarder.Upstream seam between a frontend
// and its resolver.
type tracedUpstream struct {
	t    *tracer
	next forwarder.Upstream
}

func (u tracedUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	if !u.t.on.Load() {
		return u.next.Exchange(ctx, qname, qtype)
	}
	s := span{ID: u.t.next.Add(1), Parent: parentOf(ctx), Seam: seamUpstream, Key: uint64(qnameHash(qname)), Start: nowNS()}
	resp, err := u.next.Exchange(context.WithValue(ctx, parentKey{}, s.ID), qname, qtype)
	s.End = nowNS()
	u.t.record(s)
	return resp, err
}

// wrapEndpoints re-registers every authoritative endpoint of the wild
// network behind the endpoint seam and returns how many it wrapped. The
// network has no listing call, so it sweeps 198.18.0.0–198.21.255.255, the
// range population.Materialize places all of its servers in.
func wrapEndpoints(t *tracer, n *netsim.Network) int {
	wrapped := 0
	for b := byte(18); b <= 21; b++ {
		for c := 0; c < 256; c++ {
			for d := 0; d < 256; d++ {
				addr := netip.AddrFrom4([4]byte{198, b, byte(c), byte(d)})
				if h, ok := n.HandlerAt(addr); ok {
					n.Register(addr, tracedHandler{t: t, seam: seamEndpoint, next: h})
					wrapped++
				}
			}
		}
	}
	return wrapped
}

// spans returns everything recorded so far, ordered by start time.
func (t *tracer) spans() []span {
	var all []span
	for i := range t.bufs {
		b := &t.bufs[i]
		b.mu.Lock()
		all = append(all, b.spans...)
		b.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// link resolves the parents the context could not carry. A front-door span
// belongs to the client span with the same (ID, qname) key that encloses it;
// a remote replica's span — reached over UDP under a fresh ID — belongs to
// the router's frontdoor.handle span for the same qname that encloses it.
// spans must be ordered by start. It returns how many stayed unmatched.
func link(spans []span) (orphans int) {
	byKey := make(map[uint64][]int)  // client spans by full key
	byName := make(map[uint32][]int) // router handle spans by qname hash
	for i, s := range spans {
		switch s.Seam {
		case seamClient:
			byKey[s.Key] = append(byKey[s.Key], i)
		case seamHandle:
			byName[uint32(s.Key)] = append(byName[uint32(s.Key)], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var cands []int
		switch s.Seam {
		case seamWire, seamHandle:
			cands = byKey[s.Key]
		case seamReplicaWire, seamReplicaHandle:
			cands = byName[uint32(s.Key)]
		default:
			continue
		}
		// The latest candidate that started before s and ends after it.
		j := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].Start > s.Start })
		s.Parent = -1
		for j--; j >= 0; j-- {
			if p := spans[cands[j]]; p.End >= s.End {
				s.Parent = p.ID
				break
			}
		}
		if s.Parent < 0 {
			orphans++
		}
	}
	return orphans
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		covered, edge := int64(0), s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFileSpans caps the spans written per workload; self times are always
// computed over every span recorded.
const traceFileSpans = 50000

// writeTrace writes the first traceFileSpans spans as JSON for inspection.
func writeTrace(dir, workload string, spans []span) (string, error) {
	type out struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Query  uint64 `json:"query"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	if len(spans) > traceFileSpans {
		spans = spans[:traceFileSpans]
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s.ID, s.Parent, seamNames[s.Seam], s.Key, s.Start, s.End}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
