package netsim

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

// FaultProfile describes the impairments one endpoint's network path
// exhibits. The zero value is a perfect network. Profiles are pure data —
// the per-endpoint randomness lives in the FaultPlan, seeded so that every
// chaos run is replayable from a single number.
//
// Datagram-only faults (Truncate, Garble, Duplicate, Reorder) model UDP
// pathologies and are skipped on stream (TCP-fallback) exchanges; the
// path-level faults (loss, bursts, latency, flapping, DropAfter) apply to
// both transports, as a dead or congested path drops everything.
type FaultProfile struct {
	// Loss is the steady-state probability in [0,1] that a query is
	// silently dropped.
	Loss float64
	// BurstEvery/BurstLen superimpose loss bursts on the steady process:
	// every BurstEvery-th query to the endpoint begins a run of BurstLen
	// consecutive drops (the correlated-loss pattern of a congested or
	// rebooting path).
	BurstEvery int
	BurstLen   int
	// Latency is the base service latency; LatencyJitter adds a uniform
	// random extra in [0, LatencyJitter); LatencyRamp adds LatencyRamp per
	// query already served (a path that degrades under sustained load).
	// Latency is virtual: it is charged against the querying context's
	// deadline and reported as the exchange RTT, but never slept, so chaos
	// runs stay fast and deterministic. A latency that would exceed the
	// context deadline is a timeout, exactly as a real client experiences
	// it.
	Latency       time.Duration
	LatencyJitter time.Duration
	LatencyRamp   time.Duration
	// FlapUp/FlapDown cycle the endpoint: answer FlapUp queries, silently
	// drop FlapDown, repeat (a flapping route or crash-looping server).
	FlapUp   int
	FlapDown int
	// Truncate sets TC on every datagram response and strips its record
	// sections, forcing clients to retry over the stream transport
	// (RFC 7766 fallback).
	Truncate bool
	// Garble is the probability a response datagram is corrupted in flight
	// beyond parsing; the client observes ErrMalformed.
	Garble float64
	// Duplicate is the probability the query datagram is duplicated: the
	// handler processes it twice (advancing any per-query server state),
	// the client sees one response.
	Duplicate float64
	// Reorder is the probability a response datagram is delayed and
	// overtaken: the client receives the previously delayed response (for
	// the wrong question) or, when none is pending, nothing at all.
	Reorder float64
	// DropAfter answers the first DropAfter queries normally and silently
	// drops every later one (a server dying mid-measurement). Zero means
	// never.
	DropAfter int
}

// IsZero reports whether the profile injects no faults at all.
func (p FaultProfile) IsZero() bool { return p == FaultProfile{} }

// String renders the profile in the spec format ParseFaultProfile accepts.
// Fields at their zero value are omitted; the zero profile renders as "".
func (p FaultProfile) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Loss > 0 {
		add("loss=" + strconv.FormatFloat(p.Loss, 'g', -1, 64))
	}
	if p.BurstEvery > 0 && p.BurstLen > 0 {
		add(fmt.Sprintf("burst=%d:%d", p.BurstEvery, p.BurstLen))
	}
	if p.Latency > 0 {
		add("lat=" + p.Latency.String())
	}
	if p.LatencyJitter > 0 {
		add("jitter=" + p.LatencyJitter.String())
	}
	if p.LatencyRamp > 0 {
		add("ramp=" + p.LatencyRamp.String())
	}
	if p.FlapUp > 0 && p.FlapDown > 0 {
		add(fmt.Sprintf("flap=%d:%d", p.FlapUp, p.FlapDown))
	}
	if p.Truncate {
		add("trunc")
	}
	if p.Garble > 0 {
		add("garble=" + strconv.FormatFloat(p.Garble, 'g', -1, 64))
	}
	if p.Duplicate > 0 {
		add("dup=" + strconv.FormatFloat(p.Duplicate, 'g', -1, 64))
	}
	if p.Reorder > 0 {
		add("reorder=" + strconv.FormatFloat(p.Reorder, 'g', -1, 64))
	}
	if p.DropAfter > 0 {
		add("dieafter=" + strconv.Itoa(p.DropAfter))
	}
	return strings.Join(parts, ",")
}

// ParseFaultProfile parses a comma-separated fault spec, e.g.
//
//	loss=0.25,burst=40:3,lat=80ms,jitter=40ms,flap=6:2,trunc,garble=0.1,dup=0.05,reorder=0.05,dieafter=100
//
// The empty string is the zero (fault-free) profile. Probabilities must lie
// in [0,1], durations use Go syntax, and pair-valued keys (burst, flap) take
// the form N:M with both sides positive.
func ParseFaultProfile(spec string) (FaultProfile, error) {
	var p FaultProfile
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "trunc":
			if hasVal {
				return p, fmt.Errorf("netsim: fault key %q takes no value", key)
			}
			p.Truncate = true
			continue
		}
		if !hasVal {
			return p, fmt.Errorf("netsim: fault key %q needs a value", key)
		}
		switch key {
		case "loss", "garble", "dup", "reorder":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("netsim: %s=%q is not a probability in [0,1]", key, val)
			}
			switch key {
			case "loss":
				p.Loss = f
			case "garble":
				p.Garble = f
			case "dup":
				p.Duplicate = f
			case "reorder":
				p.Reorder = f
			}
		case "lat", "jitter", "ramp":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return p, fmt.Errorf("netsim: %s=%q is not a non-negative duration", key, val)
			}
			switch key {
			case "lat":
				p.Latency = d
			case "jitter":
				p.LatencyJitter = d
			case "ramp":
				p.LatencyRamp = d
			}
		case "burst", "flap":
			a, b, ok := strings.Cut(val, ":")
			na, errA := strconv.Atoi(a)
			nb, errB := strconv.Atoi(b)
			if !ok || errA != nil || errB != nil || na <= 0 || nb <= 0 {
				return p, fmt.Errorf("netsim: %s=%q is not N:M with N,M > 0", key, val)
			}
			if key == "burst" {
				p.BurstEvery, p.BurstLen = na, nb
			} else {
				p.FlapUp, p.FlapDown = na, nb
			}
		case "dieafter":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("netsim: dieafter=%q is not a positive count", val)
			}
			p.DropAfter = n
		default:
			return p, fmt.Errorf("netsim: unknown fault key %q", key)
		}
	}
	return p, nil
}

// FaultPlan schedules faults across a Network's endpoints: a default profile
// for every endpoint plus per-address overrides. Each endpoint draws from
// its own PCG stream seeded by (plan seed, address), so the loss/garble/...
// sequence one endpoint sees is a pure function of the seed and that
// endpoint's own query order — independent of how queries to different
// endpoints interleave, which is what makes concurrent chaos runs
// replayable.
type FaultPlan struct {
	seed uint64
	def  FaultProfile

	mu        sync.Mutex
	overrides map[netip.Addr]FaultProfile
	states    map[netip.Addr]*faultState
}

// NewFaultPlan creates a plan applying def to every endpoint.
func NewFaultPlan(seed uint64, def FaultProfile) *FaultPlan {
	return &FaultPlan{
		seed:      seed,
		def:       def,
		overrides: make(map[netip.Addr]FaultProfile),
		states:    make(map[netip.Addr]*faultState),
	}
}

// Override replaces the profile for one endpoint (its draw stream restarts).
func (p *FaultPlan) Override(addr netip.Addr, fp FaultProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.overrides[addr] = fp
	delete(p.states, addr)
}

// faultState is one endpoint's mutable draw state.
type faultState struct {
	mu        sync.Mutex
	rng       *rand.Rand
	served    int // queries seen (drives flap, ramp, dieafter, burst phase)
	burstLeft int
	pending   *dnswire.Message // response delayed by a reorder
}

// addrSeed folds an address into the plan seed with FNV-1a.
func addrSeed(seed uint64, addr netip.Addr) uint64 {
	b := addr.As16()
	return fnv1a.Sum64(b[:]) ^ seed
}

func (p *FaultPlan) stateFor(addr netip.Addr) (*faultState, FaultProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fp, ok := p.overrides[addr]
	if !ok {
		fp = p.def
	}
	st, ok := p.states[addr]
	if !ok {
		s := addrSeed(p.seed, addr)
		st = &faultState{rng: rand.New(rand.NewPCG(s, s^0x9E3779B97F4A7C15))}
		p.states[addr] = st
	}
	return st, fp
}

// verdict is the outcome of one pre/post-delivery draw.
type verdict struct {
	drop      bool
	latency   time.Duration
	truncate  bool
	garble    bool
	duplicate bool
	reorder   bool
}

// draw advances the endpoint's state by one query and decides this
// exchange's fate. stream exchanges skip the datagram-only faults.
func (st *faultState) draw(fp FaultProfile, stream bool) verdict {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.served
	st.served++

	var v verdict
	if fp.DropAfter > 0 && n >= fp.DropAfter {
		v.drop = true
		return v
	}
	if fp.FlapUp > 0 && fp.FlapDown > 0 {
		if n%(fp.FlapUp+fp.FlapDown) >= fp.FlapUp {
			v.drop = true
			return v
		}
	}
	if fp.BurstEvery > 0 && fp.BurstLen > 0 && n > 0 && n%fp.BurstEvery == 0 {
		st.burstLeft = fp.BurstLen
	}
	if st.burstLeft > 0 {
		st.burstLeft--
		v.drop = true
		return v
	}
	if fp.Loss > 0 && st.rng.Float64() < fp.Loss {
		v.drop = true
		return v
	}
	if fp.Latency > 0 || fp.LatencyJitter > 0 || fp.LatencyRamp > 0 {
		v.latency = fp.Latency + time.Duration(n)*fp.LatencyRamp
		if fp.LatencyJitter > 0 {
			v.latency += time.Duration(st.rng.Int64N(int64(fp.LatencyJitter)))
		}
	}
	if stream {
		return v
	}
	v.truncate = fp.Truncate
	if fp.Garble > 0 && st.rng.Float64() < fp.Garble {
		v.garble = true
	}
	if fp.Duplicate > 0 && st.rng.Float64() < fp.Duplicate {
		v.duplicate = true
	}
	if fp.Reorder > 0 && st.rng.Float64() < fp.Reorder {
		v.reorder = true
	}
	return v
}

// swapPending implements reordering: the new response is delayed, the
// previously delayed one (if any) is delivered in its place.
func (st *faultState) swapPending(m *dnswire.Message) *dnswire.Message {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.pending
	st.pending = m
	return prev
}
