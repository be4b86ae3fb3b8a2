// Package frontend is the serving layer of the reproduction: a caching DNS
// front end that sits between clients and a recursive engine, the component
// whose behaviour dominates the paper's wild-scan caching codes (§4.2 items
// 11–13: Stale Answer, Stale NXDOMAIN Answer, Cached Error).
//
// The recursive resolver in internal/resolver answers one query at a time
// and was built for measurement fidelity, not throughput. A production
// resolver platform — the kind the paper scans — puts a serving layer in
// front of the recursion:
//
//	client → frontend (cache, coalescing, stale, backpressure) → resolver → authorities
//
// This package provides that layer as a netsim.Handler, so it plugs into
// both the simulated network and the real-socket front door in
// internal/transport. It composes five mechanisms:
//
//   - A sharded message cache (an internal/ttlmap map: FNV-distributed
//     shards, a lock per shard, one eviction rule that spares entries a
//     fresh hit has read) bounding memory, so concurrent clients contend
//     only within one shard. One entry per question (qname, qtype, CD),
//     rendered per client: TTL-decremented, with RRSIGs and AD only for
//     DO=1 clients.
//   - Singleflight query coalescing: M concurrent clients asking the same
//     (qname, qtype, CD), whatever their DO bits, trigger one upstream
//     recursion and M answers.
//   - RFC 8767 serve-stale: when recursion fails (timeout or SERVFAIL), an
//     expired entry within the stale window is served with the codes the
//     resolver's profile reports for it (EDE 3 or 19) — unless the profile
//     does not serve stale (forwarder.ProfiledUpstream; no profile reads
//     as Cloudflare's).
//   - RFC 2308 negative caching plus an error cache: repeated failures are
//     answered from cache with the profile's cached-error codes (EDE 13
//     under Cloudflare's) and the retry-delay EXTRA-TEXT the paper observed
//     (a bare seconds count such as "114").
//   - Overload protection: a bounded in-flight semaphore and a per-query
//     deadline. Excess load degrades to SERVFAIL + EDE 23 (Network Error)
//     with EXTRA-TEXT saying why, never an unbounded goroutine pile.
//
// All serving decisions are counted in a Metrics registry with a lock-free
// Snapshot accessor, exposed by cmd/edeserver on its admin plane's /metrics.
package frontend
