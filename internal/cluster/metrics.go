package cluster

import (
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// metrics are the router-level counters; per-replica serving counters live
// in each replica's own registry (/api/cluster/metrics?replica=).
type metrics struct {
	takeovers    atomic.Uint64
	spills       atomic.Uint64
	peekHits     atomic.Uint64
	peekMisses   atomic.Uint64
	forwardFails atomic.Uint64
	unrouted     atomic.Uint64
}

// RegisterMetrics exposes the cluster's routing counters and gauges on reg.
// Per-replica routed counters are added as members join, labelled by
// replica id.
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("edelab_cluster_takeovers_total",
		"Queries served by a non-owner replica because the owner was draining, down, or failing.",
		c.m.takeovers.Load)
	reg.CounterFunc("edelab_cluster_spills_total",
		"Queries spilled to the next ring node because the owner was over its inflight cap.",
		c.m.spills.Load)
	reg.CounterFunc("edelab_cluster_peek_total",
		"Cross-replica cache peeks by result.",
		c.m.peekHits.Load, telemetry.L("result", "hit"))
	reg.CounterFunc("edelab_cluster_peek_total",
		"Cross-replica cache peeks by result.",
		c.m.peekMisses.Load, telemetry.L("result", "miss"))
	reg.CounterFunc("edelab_cluster_forward_failures_total",
		"Failed forwards to remote replicas.",
		c.m.forwardFails.Load)
	reg.CounterFunc("edelab_cluster_unrouted_total",
		"Queries no replica could serve (answered SERVFAIL + EDE 23 by the router).",
		c.m.unrouted.Load)
	reg.GaugeFunc("edelab_cluster_replicas",
		"Replicas currently in active rotation.",
		func() float64 {
			v := c.viewP.Load()
			if v == nil {
				return 0
			}
			n := 0
			for _, nd := range v.nodes {
				if nd.st() == stateActive {
					n++
				}
			}
			return float64(n)
		})

	c.mu.Lock()
	c.metReg = reg
	for _, nd := range c.members {
		c.registerNodeLocked(nd)
	}
	c.mu.Unlock()
}

// registerNodeLocked adds the per-replica routed counter once a metrics
// registry is attached (idempotent: the registry keeps one collector per
// name+labels, and the closure reads the same atomic).
func (c *Cluster) registerNodeLocked(nd *node) {
	if c.metReg == nil {
		return
	}
	c.metReg.CounterFunc("edelab_cluster_routed_total",
		"Queries routed per replica.",
		nd.routed.Load, telemetry.L("replica", nd.id))
}
