package cluster

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// nodeState is a replica's routing state. Draining and down replicas take
// no new queries (their ring range is absorbed by the next live node), but
// a draining replica's cache stays peekable so takeover answers remain
// byte-identical; a down replica is gone entirely.
type nodeState int32

const (
	stateActive nodeState = iota
	stateDraining
	stateDown
)

func (s nodeState) String() string {
	switch s {
	case stateActive:
		return "active"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// remoteFailureLimit is how many consecutive forward failures mark a remote
// replica down.
const remoteFailureLimit = 3

// Config tunes the cluster. The zero value gets defaults from New.
type Config struct {
	// Seed feeds the ring's vnode placement (deterministic per seed).
	Seed uint64
	// Frontend is the serving configuration every local replica's frontend
	// is built with. The bounded-load cap follows from it: when the owning
	// replica has twice its MaxInflight routed queries in flight, the router
	// spills the query to the next ring node.
	Frontend frontend.Config
	// Manifest, when set, names the zone set (name + content hash) that
	// joining secondaries must verify before taking traffic.
	Manifest func() []ZoneInfo

	// forwardTimeout bounds one UDP forward to a remote replica, parsed or
	// relayed: 1.5 s unless a test of this package sets it.
	forwardTimeout time.Duration
}

func (c Config) withDefaults() Config {
	c.Frontend = c.Frontend.WithDefaults()
	if c.forwardTimeout <= 0 {
		c.forwardTimeout = 1500 * time.Millisecond
	}
	return c
}

// node is one cluster member: an in-process frontend replica or a remote
// one reached by UDP forwarding.
type node struct {
	c     *Cluster
	id    string
	addr  string             // DNS address for remote members, "" for local; guarded by Cluster.mu
	local *frontend.Frontend // non-nil for in-process replicas
	// remote is a remote member's forwarder, replaced when the member
	// rejoins (possibly at another address) while queries are in flight.
	remote atomic.Pointer[remoteBackend]

	state    atomic.Int32
	inflight atomic.Int64
	routed   atomic.Uint64
	failures atomic.Int32 // consecutive remote forward failures
}

func (n *node) st() nodeState { return nodeState(n.state.Load()) }

// view is the immutable routing snapshot: the ring plus the member slice
// its node indices refer into. Replaced wholesale on membership change,
// read lock-free on every query.
type view struct {
	ring  *ring
	nodes []*node
}

// Cluster is the multi-replica serving tier. It implements netsim.Handler
// (route a parsed query to the owning replica) and transport.WireRouter
// (serve straight from a local owner's pre-packed wire cache, name a remote
// owner for the UDP front door to relay the datagram to), so it slots into
// the PR 6 front door wherever a single frontend did.
type Cluster struct {
	cfg Config

	mu      sync.Mutex // guards members/epoch/regs
	members []*node
	epoch   uint64 // the membership version: one step per change
	regs    map[string]*telemetry.Registry
	metReg  *telemetry.Registry // where per-replica counters register late

	viewP atomic.Pointer[view]
	m     metrics
}

// New builds an empty cluster; add replicas with AddLocal/AddRemote.
func New(cfg Config) *Cluster {
	return &Cluster{cfg: cfg.withDefaults(), regs: make(map[string]*telemetry.Registry)}
}

// Replica is the handle AddLocal returns for one in-process member.
type Replica struct {
	n  *node
	fe *frontend.Frontend
}

// Frontend returns the replica's serving frontend.
func (r *Replica) Frontend() *frontend.Frontend { return r.fe }

// AddLocal builds one in-process replica: a frontend over up with the
// cluster's serving config and the cross-replica peek hook installed, plus
// a per-replica telemetry registry (/api/cluster/metrics?replica=).
func (c *Cluster) AddLocal(id string, up forwarder.Upstream) (*Replica, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.findLocked(id) != nil {
		return nil, fmt.Errorf("cluster: replica %q already exists", id)
	}
	nd := &node{c: c, id: id}
	fcfg := c.cfg.Frontend
	fcfg.Peek = c.peekFor(nd)
	fe := frontend.New(up, fcfg)
	nd.local = fe
	reg := telemetry.NewRegistry()
	fe.RegisterMetrics(reg)
	c.regs[id] = reg
	c.admitLocked(nd)
	return &Replica{n: nd, fe: fe}, nil
}

// AddRemote admits (or, for a known id, reactivates) a remote replica
// whose front door listens on addr; the router reaches it by forwarding
// the query datagram over UDP. An addr that does not resolve is refused
// and admits nothing. The lookup runs before the cluster lock is taken, so
// a hostname join never holds up StateSnapshot or a concurrent join.
func (c *Cluster) AddRemote(id, addr string) error {
	rb, err := newRemoteBackend(addr, c.cfg.forwardTimeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if nd := c.findLocked(id); nd != nil {
		if nd.local != nil {
			return fmt.Errorf("cluster: replica %q is local, cannot re-join as remote", id)
		}
		nd.addr = addr
		nd.remote.Store(rb)
		c.reactivateLocked(nd)
		return nil
	}
	nd := &node{c: c, id: id, addr: addr}
	nd.remote.Store(rb)
	c.admitLocked(nd)
	return nil
}

// admitLocked appends a new member, bumps the epoch, and rebuilds the ring.
func (c *Cluster) admitLocked(nd *node) {
	nd.state.Store(int32(stateActive))
	c.members = append(c.members, nd)
	c.epoch++
	c.rebuildLocked()
	c.registerNodeLocked(nd)
}

// reactivateLocked returns a known member to active rotation with a clean
// failure count.
func (c *Cluster) reactivateLocked(nd *node) {
	nd.failures.Store(0)
	nd.state.Store(int32(stateActive))
	c.epoch++
}

// rebuildLocked recomputes the immutable routing view from the member list.
func (c *Cluster) rebuildLocked() {
	ids := make([]string, len(c.members))
	nodes := make([]*node, len(c.members))
	for i, nd := range c.members {
		ids[i] = nd.id
		nodes[i] = nd
	}
	c.viewP.Store(&view{ring: buildRing(ids, DefaultVnodes, c.cfg.Seed), nodes: nodes})
}

func (c *Cluster) findLocked(id string) *node {
	for _, nd := range c.members {
		if nd.id == id {
			return nd
		}
	}
	return nil
}

// setState transitions one member and advances the epoch.
func (c *Cluster) setState(id string, st nodeState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.findLocked(id)
	if nd == nil {
		return fmt.Errorf("cluster: unknown replica %q", id)
	}
	nd.state.Store(int32(st))
	c.epoch++
	return nil
}

// MarkDraining stops routing new queries to id without waiting for its
// inflight queries (the remote drain protocol: the replica announces the
// drain, finishes what it has, then leaves).
func (c *Cluster) MarkDraining(id string) error { return c.setState(id, stateDraining) }

// Kill marks id down immediately: no drain, cache not even peekable, peers
// absorb its ring range on the next query. It is both the chaos path and
// the last step of a graceful leave; the member stays in the list, so a
// later join with the same id reactivates it.
func (c *Cluster) Kill(id string) error { return c.setState(id, stateDown) }

// Rejoin returns a drained or down replica to active rotation. A local
// replica shares the zone data in-process, so there is nothing to catch up
// on; a remote one rejoins through /join instead, with its address.
func (c *Cluster) Rejoin(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.findLocked(id)
	if nd == nil {
		return fmt.Errorf("cluster: unknown replica %q", id)
	}
	c.reactivateLocked(nd)
	return nil
}

// walkBuf sizes the caller-owned array a ring walk fills; a larger cluster
// spills the tail of its walk to the heap.
const walkBuf = 8

// underCap reports whether nd has fewer routed queries in flight than the
// bounded-load cap, twice a replica's MaxInflight.
func (c *Cluster) underCap(nd *node) bool {
	return nd.inflight.Load() < 2*int64(c.cfg.Frontend.MaxInflight)
}

// servable reports whether nd takes new queries: in rotation and under the
// bounded-load cap.
func (c *Cluster) servable(nd *node) bool {
	return nd.st() == stateActive && c.underCap(nd)
}

// candidates walks the ring from h and appends the active nodes to buf in
// takeover order. Routing needs it only when the owner is out of rotation,
// over its cap, or failing.
func (c *Cluster) candidates(v *view, h uint64, buf []*node) []*node {
	v.ring.sequence(h, func(n int) bool {
		if nd := v.nodes[n]; nd.st() == stateActive {
			buf = append(buf, nd)
		}
		return true
	})
	return buf
}

// wireTarget is where the wire paths send hash h: the owner, or while it is
// draining or down the first active node after it. nil when none is.
func (c *Cluster) wireTarget(v *view, h uint64) (owner, target *node) {
	owner = v.nodes[v.ring.owner(h)]
	if owner.st() == stateActive {
		return owner, owner
	}
	v.ring.sequence(h, func(n int) bool {
		if nd := v.nodes[n]; nd.st() == stateActive {
			target = nd
		}
		return target == nil
	})
	return owner, target
}

// HandleDNS implements netsim.Handler: hash the question onto the ring,
// serve on the owning replica, spill past draining/down/overloaded nodes,
// and retry the next ring node when a remote forward fails.
func (c *Cluster) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	v := c.viewP.Load()
	if v == nil || len(v.nodes) == 0 {
		c.m.unrouted.Add(1)
		return failReply(q, "cluster has no replicas"), nil
	}
	var h uint64
	if len(q.Question) == 1 {
		h = keyHash(q.Question[0].Name, q.Question[0].Type, q.CheckingDisabled)
	}
	owner := v.nodes[v.ring.owner(h)]

	// Common case: the owner is in rotation and under its cap, and the ring
	// is not walked at all.
	var buf [walkBuf]*node
	var cands []*node
	target := owner
	if !c.servable(owner) {
		cands = c.candidates(v, h, buf[:0])
		if len(cands) == 0 {
			c.m.unrouted.Add(1)
			return failReply(q, "cluster: no replica available"), nil
		}
		// Bounded load: prefer the first candidate under the inflight cap;
		// when all are over it, the owner-side candidate still serves (an
		// overloaded owner beats a refused client — the frontend sheds its
		// own recursions with EDE 23 if it truly cannot keep up).
		target = cands[0]
		for _, nd := range cands {
			if c.underCap(nd) {
				target = nd
				break
			}
		}
		if target != owner {
			if owner.st() == stateActive {
				c.m.spills.Add(1)
			} else {
				c.m.takeovers.Add(1)
			}
		}
	}
	if resp := c.serveOn(ctx, target, q); resp != nil {
		return resp, nil
	}

	// The target failed: offer the query to every other active node, in
	// ring order from the target on.
	if cands == nil {
		cands = c.candidates(v, h, buf[:0])
	}
	start := -1 // the target may have been marked down just now
	for i, nd := range cands {
		if nd == target {
			start = i
		}
	}
	for i := 1; i <= len(cands); i++ {
		nd := cands[(start+i)%len(cands)]
		if nd == target || nd.st() != stateActive {
			continue // tried, or marked down by a concurrent failure
		}
		c.m.takeovers.Add(1)
		if resp := c.serveOn(ctx, nd, q); resp != nil {
			return resp, nil
		}
	}
	c.m.unrouted.Add(1)
	return failReply(q, "cluster: every replica failed"), nil
}

// serveOn runs one query on nd, accounting inflight for the bounded-load
// cap and the drain wait, and keeps the books on the outcome. nil means nd
// failed and the caller should try the next node.
func (c *Cluster) serveOn(ctx context.Context, nd *node, q *dnswire.Message) *dnswire.Message {
	nd.inflight.Add(1)
	defer nd.inflight.Add(-1)
	nd.routed.Add(1)
	var resp *dnswire.Message
	var err error
	if nd.local != nil {
		resp, err = nd.local.HandleDNS(ctx, q)
	} else {
		resp, err = nd.remote.Load().HandleDNS(ctx, q)
	}
	ok := err == nil && resp != nil
	c.noteResult(nd, ok)
	if !ok {
		return nil
	}
	return resp
}

// noteResult keeps the failure books for one query served on nd, parsed or
// relayed: an answer clears a remote member's consecutive-failure count, a
// failure is counted and, at remoteFailureLimit, marks the member down so
// the ring stops offering it.
func (c *Cluster) noteResult(nd *node, ok bool) {
	if ok {
		if nd.local == nil && nd.failures.Load() != 0 {
			nd.failures.Store(0)
		}
		return
	}
	c.m.forwardFails.Add(1)
	if nd.local == nil && nd.failures.Add(1) >= remoteFailureLimit && nd.st() == stateActive {
		_ = c.setState(nd.id, stateDown)
	}
}

// ServeWire implements transport.WireServer: a wire-cache hit on the
// owning (or takeover) replica is served without parsing, and a takeover
// hit counts as a takeover as it does on the parsed path. A miss falls
// back to the full HandleDNS path, which peeks before recursing.
func (c *Cluster) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	v := c.viewP.Load()
	if v == nil || len(v.nodes) == 0 {
		return nil, false
	}
	owner, target := c.wireTarget(v, keyHash(q.Name, q.Type, q.CD))
	if target == nil || target.local == nil {
		return nil, false
	}
	out, ok := target.local.ServeWire(q, limit, dst)
	if !ok {
		return nil, false
	}
	if target != owner {
		c.m.takeovers.Add(1) // the owner is out of rotation (wireTarget)
	}
	return out, true
}

// RouteWire implements transport.WireRouter: for a query ServeWire
// declined, name the remote owner (or takeover node) so the UDP front door
// relays the datagram instead of parsing it for HandleDNS. A local target,
// one over its inflight cap, or one without a usable address stays on the
// parsed path, which knows how to spill and retry.
func (c *Cluster) RouteWire(q dnswire.WireQuery) (transport.RelayPeer, bool) {
	v := c.viewP.Load()
	if v == nil || len(v.nodes) == 0 {
		return nil, false
	}
	owner, target := c.wireTarget(v, keyHash(q.Name, q.Type, q.CD))
	if target == nil || target.local != nil ||
		!c.underCap(target) || !target.Addr().IsValid() {
		return nil, false
	}
	if target != owner {
		c.m.takeovers.Add(1)
	}
	target.inflight.Add(1)
	return target, true
}

// RelayTimeout implements transport.WireRouter: a relayed query waits for
// its answer as long as a parsed forward does.
func (c *Cluster) RelayTimeout() time.Duration { return c.cfg.forwardTimeout }

// Addr and Done make a remote node the transport.RelayPeer RouteWire hands
// out. Done is serveOn's bookkeeping for a query the front door relayed.
func (nd *node) Addr() netip.AddrPort { return nd.remote.Load().peer }

func (nd *node) Done(o transport.RelayOutcome) {
	nd.inflight.Add(-1)
	if o != transport.RelayAbandoned {
		nd.routed.Add(1)
		nd.c.noteResult(nd, o == transport.RelayAnswered)
	}
}

// peekFor builds the cross-replica peek hook for one local member: consult
// every other live local replica's cache, preferring fresh entries
// anywhere over stale ones. Draining replicas still answer peeks — that is
// what keeps takeover answers byte-identical during a drain.
func (c *Cluster) peekFor(self *node) func(pk frontend.PeekKey, staleOK bool) (*frontend.SharedEntry, bool) {
	return func(pk frontend.PeekKey, staleOK bool) (*frontend.SharedEntry, bool) {
		v := c.viewP.Load()
		if v == nil {
			c.m.peekMisses.Add(1)
			return nil, false
		}
		for _, nd := range v.nodes {
			if nd == self || nd.local == nil || nd.st() == stateDown {
				continue
			}
			if se, ok := nd.local.PeekShared(pk, false); ok {
				c.m.peekHits.Add(1)
				return se, true
			}
		}
		if staleOK {
			for _, nd := range v.nodes {
				if nd == self || nd.local == nil || nd.st() == stateDown {
					continue
				}
				if se, ok := nd.local.PeekShared(pk, true); ok {
					c.m.peekHits.Add(1)
					return se, true
				}
			}
		}
		c.m.peekMisses.Add(1)
		return nil, false
	}
}

// OwnerID reports which replica owns the (name, type, cd) question — test
// and operator tooling for ring-placement assertions.
func (c *Cluster) OwnerID(name dnswire.Name, qtype dnswire.Type, cd bool) string {
	v := c.viewP.Load()
	if v == nil {
		return ""
	}
	n := v.ring.owner(keyHash(name, qtype, cd))
	if n < 0 {
		return ""
	}
	return v.nodes[n].id
}

// failReply is the router's own failure answer: SERVFAIL with RA and EDE 23
// (network error) when the client can carry it, mirroring the transport
// shed reply so clients see one idiom for "infrastructure, not data".
func failReply(q *dnswire.Message, text string) *dnswire.Message {
	r := q.Reply()
	r.RCode = dnswire.RCodeServFail
	r.RecursionAvailable = true
	if r.OPT != nil {
		r.AddEDE(uint16(ede.CodeNetworkError), text)
	}
	return r
}

var (
	_ netsim.Handler       = (*Cluster)(nil)
	_ transport.WireRouter = (*Cluster)(nil)
)
