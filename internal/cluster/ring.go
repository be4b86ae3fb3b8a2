// Package cluster is the multi-replica serving tier: N frontend replicas
// behind a consistent-hash query router, with cross-replica cache peeking
// (singleflight stays global), primary→secondary state replication over
// the admin HTTP plane, and live drain/rejoin for rolling restarts. See
// DESIGN.md §5j.
package cluster

import (
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

const (
	// DefaultVnodes is the virtual-node count per replica. 512 points per
	// node keeps the 16-replica distribution over the scan population
	// within 15% of uniform (see ring_test.go); ring rebuilds happen only
	// on membership change, so the extra points cost nothing per query.
	DefaultVnodes = 512
)

// mix64 is the murmur3 finalizer: FNV-1a alone leaves short inputs poorly
// dispersed across the high bits, and ring placement uses the full uint64.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash places a question on the ring: FNV-1a over the qname bytes, the
// qtype, and the CD bit — the frontend's cache key (frontend.PeekKey), so
// each cache entry has one owner and lives once cluster-wide.
func keyHash(name dnswire.Name, qtype dnswire.Type, cd bool) uint64 {
	h := (fnv1a.Sum64(name) ^ uint64(qtype)) * fnv1a.Prime64
	if cd {
		h = (h ^ 0xcd) * fnv1a.Prime64
	}
	return mix64(h)
}

// pointHash places one virtual node on the ring: FNV-1a over the cluster
// seed's significant bytes (low first), the replica id, '#', and the vnode
// index as four little-endian bytes.
func pointHash(seed uint64, id string, vnode int) uint64 {
	var buf [64]byte
	b := buf[:0]
	for s := seed; s != 0; s >>= 8 {
		b = append(b, byte(s))
	}
	b = append(b, id...)
	b = append(b, '#', byte(vnode), byte(vnode>>8), byte(vnode>>16), byte(vnode>>24))
	return mix64(fnv1a.Sum64(b))
}

// ringPoint is one virtual node: a position on the uint64 ring and the
// index of the replica that owns it.
type ringPoint struct {
	pos  uint64
	node int
}

// ring is an immutable consistent-hash ring over the member list it was
// built from. Rebuilt on membership change, never mutated — routing reads
// it lock-free through an atomic view pointer.
type ring struct {
	points []ringPoint
	nodes  int
}

// buildRing hashes vnodes points per member id onto the ring. ids must be
// the member list in stable order; node indices in the result refer into
// it. Deterministic for a given (ids, vnodes, seed).
func buildRing(ids []string, vnodes, seed uint64) *ring {
	r := &ring{points: make([]ringPoint, 0, int(vnodes)*len(ids)), nodes: len(ids)}
	for n, id := range ids {
		for v := 0; v < int(vnodes); v++ {
			r.points = append(r.points, ringPoint{pos: pointHash(seed, id, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owner returns the node index owning hash h: the first ring point
// clockwise from h. -1 on an empty ring.
func (r *ring) owner(h uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// sequence walks distinct nodes clockwise from h — the owner first, then
// each successor ring neighbour — calling visit until it returns false or
// every node has been offered. This is the bounded-load spill order: when
// the owner is draining, down, or over its inflight cap, the key's range
// is absorbed by the next live node on the ring.
func (r *ring) sequence(h uint64, visit func(node int) bool) {
	if len(r.points) == 0 {
		return
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if start == len(r.points) {
		start = 0
	}
	var small [4]uint64 // one bit per node; on the stack for up to 256
	seen := small[:]
	if r.nodes > 64*len(small) {
		seen = make([]uint64, (r.nodes+63)/64)
	}
	offered := 0
	for i := 0; i < len(r.points) && offered < r.nodes; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node/64]&(1<<(p.node%64)) != 0 {
			continue
		}
		seen[p.node/64] |= 1 << (p.node % 64)
		offered++
		if !visit(p.node) {
			return
		}
	}
}
