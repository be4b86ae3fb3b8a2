package frontend

import "sync/atomic"

// edeCodeSlots is the size of the fixed per-code counter array: the 30
// registered codes (0–29) plus one overflow slot for anything unassigned.
const edeCodeSlots = 31

// Metrics counts the frontend's serving decisions. All fields are atomics so
// the hot path never takes a lock for accounting; Snapshot reads them
// individually (the snapshot is per-counter consistent, not cross-counter
// atomic, which is all a stats endpoint needs).
type Metrics struct {
	queries       atomic.Uint64
	hits          atomic.Uint64
	wireHits      atomic.Uint64
	misses        atomic.Uint64
	staleServes   atomic.Uint64
	staleNXServes atomic.Uint64
	cachedErrors  atomic.Uint64
	coalesced     atomic.Uint64
	evictions     atomic.Uint64
	overloads     atomic.Uint64
	deadlines     atomic.Uint64
	refused       atomic.Uint64
	upstreamFails atomic.Uint64

	inflight     atomic.Int64
	inflightHigh atomic.Int64

	edeCounts [edeCodeSlots]atomic.Uint64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	// Queries counts every query handled, whatever the outcome.
	Queries uint64
	// Hits counts answers served from a fresh cache entry (including
	// fresh negative and error-cache entries).
	Hits uint64
	// WireHits counts the subset of Hits answered by the wire fast path
	// (pre-packed bytes patched in place, no message rebuild).
	WireHits uint64
	// Misses counts queries that triggered an upstream recursion.
	Misses uint64
	// StaleServes / StaleNXServes count RFC 8767 answers (EDE 3 / EDE 19).
	StaleServes   uint64
	StaleNXServes uint64
	// CachedErrorServes counts error-cache answers (EDE 13).
	CachedErrorServes uint64
	// CoalescedWaits counts queries that piggybacked on another client's
	// in-flight recursion instead of starting their own.
	CoalescedWaits uint64
	// Evictions counts live cache entries displaced by the capacity bound
	// (entries past their stale window are dropped, not counted).
	Evictions uint64
	// Overloads counts queries shed because the in-flight bound was hit.
	Overloads uint64
	// DeadlineExceeded counts upstream recursions cut off by the per-query
	// deadline.
	DeadlineExceeded uint64
	// Malformed counts queries rejected before resolution (FORMERR/NOTIMP).
	Malformed uint64
	// UpstreamFailures counts recursions that ended in SERVFAIL or error.
	UpstreamFailures uint64
	// Inflight and InflightHighWater report current and peak concurrent
	// upstream recursions.
	Inflight          int64
	InflightHighWater int64
	// EDECounts maps INFO-CODE → number of responses that carried it.
	// Unassigned codes are merged under key 65535.
	EDECounts map[uint16]uint64
}

// countEDE records the emission of one EDE option on a client response.
func (m *Metrics) countEDE(code uint16) {
	slot := int(code)
	if slot >= edeCodeSlots-1 {
		slot = edeCodeSlots - 1
	}
	m.edeCounts[slot].Add(1)
}

// enterInflight registers one upstream recursion, maintaining the high-water
// mark, and returns the leave function.
func (m *Metrics) enterInflight() func() {
	cur := m.inflight.Add(1)
	for {
		high := m.inflightHigh.Load()
		if cur <= high || m.inflightHigh.CompareAndSwap(high, cur) {
			break
		}
	}
	return func() { m.inflight.Add(-1) }
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Queries:           m.queries.Load(),
		Hits:              m.hits.Load(),
		WireHits:          m.wireHits.Load(),
		Misses:            m.misses.Load(),
		StaleServes:       m.staleServes.Load(),
		StaleNXServes:     m.staleNXServes.Load(),
		CachedErrorServes: m.cachedErrors.Load(),
		CoalescedWaits:    m.coalesced.Load(),
		Evictions:         m.evictions.Load(),
		Overloads:         m.overloads.Load(),
		DeadlineExceeded:  m.deadlines.Load(),
		Malformed:         m.refused.Load(),
		UpstreamFailures:  m.upstreamFails.Load(),
		Inflight:          m.inflight.Load(),
		InflightHighWater: m.inflightHigh.Load(),
	}
	for i := 0; i < edeCodeSlots; i++ {
		if n := m.edeCounts[i].Load(); n > 0 {
			if s.EDECounts == nil {
				s.EDECounts = make(map[uint16]uint64)
			}
			key := uint16(i)
			if i == edeCodeSlots-1 {
				key = 65535
			}
			s.EDECounts[key] = n
		}
	}
	return s
}
