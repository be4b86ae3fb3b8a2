// Package telemetry is the unified observability layer: a process-wide
// metrics registry and a per-resolution tracer.
//
// # Metrics
//
// A Registry holds typed counters, gauges, and histograms. The write path is
// lock-free and allocation-free: a Counter is one atomic word, a Histogram a
// fixed log-linear array of atomic words plus a CAS-updated sum and maximum.
// The subsystems that already keep their own atomic counters (frontend.Metrics,
// resolver query/resolution counts, netsim.Network stats) register *views* —
// CounterFunc/GaugeFunc callbacks over the existing atomics — so their hot
// paths and Snapshot-based tests are untouched; the registry only reads them
// at scrape time.
//
// The registry has one exposition, the Prometheus text format
// (WritePrometheus), served at /metrics by the admin HTTP plane (AdminHandler:
// /metrics, /healthz, /api/trace, /debug/pprof) that cmd/edeserver mounts
// behind -admin. In-process readers (edescan -progress, the benchmarks, the
// tests) read one series at a time with Value.
//
// # Tracing
//
// A Trace is a span tree recorded through one resolution: the delegation walk
// (zone cut chosen, referral steps), cache hit/miss layer, each transport
// attempt with server, RTT, and retry reason, DNSSEC validation verdicts, and
// the exact point each EDE condition attached. Spans travel via
// context.Context (StartTrace / SpanFrom / WithSpan).
//
// Every Span method is nil-safe: a nil *Span accepts Child/Event/End calls
// and does nothing, so instrumented code needs no flag checks and the
// disabled path costs one context.Value miss — provably zero allocations
// (gated by TestTraceOverheadGate in the repo root and the resolver's
// perf_test).
//
// Sampled traces feed a bounded ring buffer (TraceLog) that backs the
// /api/trace?name= endpoint; `ededig -trace` renders the same tree for any
// testbed case.
package telemetry
