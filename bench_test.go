package edelab

// One benchmark per paper table and figure (DESIGN.md §4's regeneration
// targets), plus the ablation benches for the design decisions called out in
// DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Figure benches measure the cost of regenerating the artifact;
// the reproduced values themselves are asserted by the test suite
// (internal/testbed, internal/scan).

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"net/netip"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// --- shared fixtures (built once; benches measure steady-state costs) ---

var (
	benchOnce sync.Once
	benchTB   *testbed.Testbed
	benchWild *population.Wild
	benchRes  []scan.Result
	benchErr  error
)

func fixtures(b testing.TB) (*testbed.Testbed, *population.Wild, []scan.Result) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping fixture-heavy benchmark in -short mode")
	}
	benchOnce.Do(func() {
		benchTB, benchErr = testbed.Build()
		if benchErr != nil {
			return
		}
		pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 42})
		benchWild, benchErr = population.Materialize(pop)
		if benchErr != nil {
			return
		}
		benchRes = wildScan(benchWild, 16)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTB, benchWild, benchRes
}

// wildScan is the §4 scan with every result kept, in population order.
func wildScan(w *population.Wild, workers int) []scan.Result {
	ctx := context.Background()
	return scan.WarmScanner(ctx, w, resolver.ProfileCloudflare(), workers, nil).Scan(ctx, domainNames(w, ""))
}

// BenchmarkTable1RegistryLookup measures EDE registry lookups (Table 1).
func BenchmarkTable1RegistryLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		info, ok := ede.Lookup(ede.Code(i % 30))
		if !ok {
			b.Fatal("unregistered code")
		}
		_ = info.Category
	}
}

// BenchmarkTable2TestbedBuild measures constructing the full testbed: root,
// com, the parent zone, and all 63 misconfigured subdomains (Tables 2–3),
// including key generation and zone signing.
func BenchmarkTable2TestbedBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := testbed.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4FullMatrix measures regenerating Table 4: resolving all 63
// test cases through all seven vendor profiles with full DNSSEC validation.
func BenchmarkTable4FullMatrix(b *testing.B) {
	tb, _, _ := fixtures(b)
	profiles := resolver.AllProfiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tb.RunAll(context.Background(), profiles)
		if stats := m.Agreement(); stats.AgreeCases != 4 {
			b.Fatalf("agreement drifted: %d", stats.AgreeCases)
		}
	}
	b.ReportMetric(float64(63*7), "resolutions/op")
}

// BenchmarkSection42WildScan measures the §4.2 experiment end to end at
// 1:100,000 scale: scanning the whole synthetic population through the
// Cloudflare-profile resolver. Results are reported as resolutions/s.
func BenchmarkSection42WildScan(b *testing.B) {
	_, w, _ := fixtures(b)
	names := domainNames(w, "")
	b.ResetTimer()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
		r.Now = w.Now
		s := scan.NewScanner(r)
		start := time.Now()
		s.Scan(context.Background(), names)
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(len(names)*b.N)/elapsed.Seconds(), "resolutions/s")
}

// BenchmarkFigure1PerTLDAggregation measures regenerating Figure 1 from a
// completed scan: the per-TLD join and both CDFs.
func BenchmarkFigure1PerTLDAggregation(b *testing.B) {
	_, w, results := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tld := scan.NewTLDAggregate(w.Pop)
		for _, r := range results {
			tld.Add(r)
		}
		g, cc := scan.Figure1(tld.Rows())
		if len(g) == 0 || len(cc) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2TrancoJoin measures regenerating Figure 2: joining scan
// results with the popularity ranking.
func BenchmarkFigure2TrancoJoin(b *testing.B) {
	_, w, results := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tranco := scan.NewTrancoAggregate(w.Pop)
		for _, r := range results {
			tranco.Add(r)
		}
		if tranco.Stats().Overlap == 0 {
			b.Fatal("empty overlap")
		}
	}
}

// BenchmarkScannerThroughput measures single resolutions against the wild
// network — the per-domain cost underlying the §5 scan-rate discussion.
func BenchmarkScannerThroughput(b *testing.B) {
	_, w, _ := fixtures(b)
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	domains := w.Pop.Domains
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := domains[i%len(domains)]
		r.Resolve(context.Background(), d.Name, dnswire.TypeA)
	}
}

// scanWorkerCounts are the concurrency levels of the parallel-scan benches
// and the BENCH_scan.json snapshot (the §5 scan-rate trajectory).
var scanWorkerCounts = []int{1, 8, 32, 128}

// runParallelResolves drives b.N resolutions through a single shared
// resolver with exactly `workers` goroutines pulling work from an atomic
// counter — the contention shape of the zdns-style scanner, without the
// scheduler noise of b.RunParallel's GOMAXPROCS coupling.
func runParallelResolves(b *testing.B, r *resolver.Resolver, domains []*population.Domain, workers int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				d := domains[int(i)%len(domains)]
				r.Resolve(context.Background(), d.Name, dnswire.TypeA)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "resolutions/s")
}

// BenchmarkScannerThroughputParallel measures the scan hot path under
// concurrency: many workers sharing one resolver (and so one cache and one
// netsim.Network), as scan.Scanner runs it. The worker-count ladder makes
// lock convoys visible: a serialized cache or network mutex flattens the
// curve well before 32 workers.
func BenchmarkScannerThroughputParallel(b *testing.B) {
	_, w, _ := fixtures(b)
	for _, workers := range scanWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
			r.Now = w.Now
			runParallelResolves(b, r, w.Pop.Domains, workers)
		})
	}
}

// newScanResolver builds a scan-shaped resolver over the wild network: the
// answer cache is bypassed (every wild-scan name is unique, so only the
// infrastructure caches matter) and the delegation cache is toggled by the
// ablation flag.
func newScanResolver(w *population.Wild, disableDelegation bool) *resolver.Resolver {
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	r.AnswerCacheReadOnly = true
	r.DisableDelegationCache = disableDelegation
	return r
}

// measureAmplification runs one pass over names through r with the given
// worker count and returns the pass's queries-per-resolution factor.
func measureAmplification(r *resolver.Resolver, names []dnswire.Name, workers int) float64 {
	s := scan.NewScanner(r)
	s.Workers = workers
	s.Scan(context.Background(), names)
	return s.QueriesPerResolution
}

// domainNames lists the population's domains, prefixed with label when it
// is not empty ("www" → www.<domain>).
func domainNames(w *population.Wild, label string) []dnswire.Name {
	names := make([]dnswire.Name, len(w.Pop.Domains))
	for i, d := range w.Pop.Domains {
		names[i] = d.Name
		if label != "" {
			names[i] = d.Name.Child(label)
		}
	}
	return names
}

// warmInfra warms r's infrastructure caches the way other clients' traffic
// would: it asks www.<domain> for every domain, which files each domain's
// cut and keys in the shared cache as infrastructure above the question. A
// scan resolver keeps the cut of a name it is asked for on that resolution
// alone, so warming on the measured names themselves would warm only the
// TLDs.
func warmInfra(r *resolver.Resolver, w *population.Wild) {
	measureAmplification(r, domainNames(w, "www"), 32)
}

// BenchmarkScanResolveWarmInfra is the tentpole's headline measurement:
// cold-answer (unique-name) resolutions against warm infrastructure, with
// the delegation cache on versus off. The queries/resolution metric is the
// amplification factor the cache exists to collapse (~3+ → ~1).
func BenchmarkScanResolveWarmInfra(b *testing.B) {
	_, w, _ := fixtures(b)
	for _, disable := range []bool{false, true} {
		name := "delegation=on"
		if disable {
			name = "delegation=off"
		}
		b.Run(name, func(b *testing.B) {
			r := newScanResolver(w, disable)
			warmInfra(r, w)
			queries := r.QueryCount.Load()
			resolutions := r.ResolutionCount.Load()
			runParallelResolves(b, r, w.Pop.Domains, 32)
			dq := r.QueryCount.Load() - queries
			dr := r.ResolutionCount.Load() - resolutions
			if dr > 0 {
				b.ReportMetric(float64(dq)/float64(dr), "queries/resolution")
			}
		})
	}
}

// TestScanQueryAmplificationGate gates the delegation cache's effect (the CI
// bench-smoke assertion): on a warm-infrastructure scan of the wild
// population, query amplification must stay at or below 1.5 queries per
// resolution with the cache, against the 3+ of the start-at-the-root walk.
// Warm infrastructure means cuts learned from other names (warmInfra). Logged
// beside it is the unique-name scan's own figure: a second pass over names
// the resolver has already scanned finds only the TLDs warm, since each
// domain's cut stayed on its resolution, so it pays TLD and domain (~2.0).
// Query counts are deterministic, unlike wall-clock throughput, so the gate
// is stable on loaded CI runners.
func TestScanQueryAmplificationGate(t *testing.T) {
	_, w, _ := fixtures(t)
	domains := domainNames(w, "")

	rUnique := newScanResolver(w, false)
	measureAmplification(rUnique, domains, 32)
	qprUnique := measureAmplification(rUnique, domains, 32)

	rOn := newScanResolver(w, false)
	warmInfra(rOn, w)
	qprOn := measureAmplification(rOn, domains, 32)

	rOff := newScanResolver(w, true)
	warmInfra(rOff, w)
	qprOff := measureAmplification(rOff, domains, 32)

	t.Logf("queries/resolution: delegation=on %.3f, delegation=off %.3f (%.1fx reduction); unique-name pass over warm TLDs %.3f",
		qprOn, qprOff, qprOff/qprOn, qprUnique)
	if qprOn > 1.5 {
		t.Errorf("warm-infrastructure amplification = %.3f queries/resolution, gate is 1.5", qprOn)
	}
	if qprOff < 2 {
		t.Errorf("delegation=off amplification = %.3f, expected the ~3+ full-walk baseline", qprOff)
	}
	if qprOff/qprOn < 2 {
		t.Errorf("delegation cache reduces amplification %.2fx, want >= 2x", qprOff/qprOn)
	}
}

// timingGates reports whether the wall-clock gates run. A ratio of two
// timings is a property of the machine's load as much as of the tree, so
// tier-1 (`go test ./...`) checks only the exact halves — allocation counts —
// and the CI jobs that own a quiet runner set BENCH_GATES=1 for the rest:
//
//	BENCH_GATES=1 go test -run 'SpeedupGate|TestTraceOverheadGate' .
func timingGates() bool { return os.Getenv("BENCH_GATES") != "" }

// TestTraceOverheadGate is the telemetry subsystem's performance acceptance
// check (CI runs it explicitly): with tracing disabled — the steady state for
// every scan and for unsampled server queries — the instrumentation must be
// free. Two bounds:
//
//  1. Allocations: a warm cached Resolve through a context that explicitly
//     carries a nil span must allocate exactly what a bare context does.
//  2. Time (under BENCH_GATES=1): a 32-worker warm-infrastructure scan pass
//     under the nil-span context must stay within 5% of the bare-context
//     pass. Both sides take the minimum of interleaved runs, which strips
//     scheduler noise the way a mean cannot.
func TestTraceOverheadGate(t *testing.T) {
	tb, w, _ := fixtures(t)

	// Alloc parity on the cached-answer fast path.
	r := tb.NewResolver(resolver.ProfileCloudflare())
	name := testbed.ParentZone.Child("valid")
	plain := context.Background()
	nilSpan := telemetry.WithSpan(context.Background(), nil)
	r.Resolve(plain, name, dnswire.TypeA)
	base := testing.AllocsPerRun(200, func() { r.Resolve(plain, name, dnswire.TypeA) })
	withNil := testing.AllocsPerRun(200, func() { r.Resolve(nilSpan, name, dnswire.TypeA) })
	if withNil != base {
		t.Errorf("disabled tracing changed cached Resolve allocs: %.1f/op with nil span vs %.1f/op bare (must add 0)",
			withNil, base)
	}
	if !timingGates() {
		t.Log("ns/op half skipped: set BENCH_GATES=1 to time the 32-worker pass")
		return
	}

	// ns/op over the 32-worker scan shape: one full population pass per run.
	rs := newScanResolver(w, false)
	warmInfra(rs, w)
	pass := func(ctx context.Context) time.Duration {
		total := int64(2 * len(w.Pop.Domains)) // big enough that scheduler jitter averages out
		var idx atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for wk := 0; wk < 32; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := idx.Add(1) - 1
					if i >= total {
						return
					}
					rs.Resolve(ctx, w.Pop.Domains[i%int64(len(w.Pop.Domains))].Name, dnswire.TypeA)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	pass(plain) // settle the caches and the scheduler before measuring
	timed := func(ctx context.Context) time.Duration {
		runtime.GC() // keep collector pauses out of the measured window
		return pass(ctx)
	}
	var minBase, minNil time.Duration
	for i := 0; i < 10; i++ {
		// Alternate the order so drift (heap growth, CPU thermal state)
		// cannot systematically favour one side.
		first, second := plain, nilSpan
		if i%2 == 1 {
			first, second = nilSpan, plain
		}
		dFirst, dSecond := timed(first), timed(second)
		dBase, dNil := dFirst, dSecond
		if i%2 == 1 {
			dBase, dNil = dSecond, dFirst
		}
		if minBase == 0 || dBase < minBase {
			minBase = dBase
		}
		if minNil == 0 || dNil < minNil {
			minNil = dNil
		}
	}
	ratio := float64(minNil) / float64(minBase)
	t.Logf("32-worker pass: bare ctx %v, nil-span ctx %v (ratio %.3f)", minBase, minNil, ratio)
	if ratio > 1.05 {
		t.Errorf("disabled tracing costs %.1f%% on the 32-worker scan pass, gate is 5%%", 100*(ratio-1))
	}
}

// peakHeapDuring samples HeapAlloc while f runs and returns the peak growth
// over the pre-call baseline — the heap attributable to f, excluding
// whatever (e.g. the materialized wild network) was already live.
// Snapshot-quality (sampling + GC timing), not a gated number.
func peakHeapDuring(f func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			default:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	f()
	close(stop)
	peak := <-peakc
	if peak <= base.HeapAlloc {
		return 0
	}
	return peak - base.HeapAlloc
}

// --- BENCH_scan.json snapshot ---

// benchSnapshot is the schema of BENCH_scan.json: one measured entry per
// tracked metric, plus the pre-optimization baseline kept for comparison.
type benchSnapshot struct {
	Note     string                `json:"note"`
	Go       string                `json:"go"`
	CPUs     int                   `json:"cpus"`
	Baseline map[string]benchPoint `json:"baseline,omitempty"`
	Current  map[string]benchPoint `json:"current"`
}

// benchPoint is one benchmark measurement.
type benchPoint struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	ResolutionsS float64 `json:"resolutions_per_sec,omitempty"`
	// QueriesPerResolution is the scan's query-amplification factor
	// (upstream queries / client resolutions).
	QueriesPerResolution float64 `json:"queries_per_resolution,omitempty"`
	// PeakHeapBytes is the sampled live-heap peak during a whole-scan run
	// (the streaming-vs-slice memory comparison).
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
	// DomainsPerSec is the campaign engine's end-to-end scan rate.
	DomainsPerSec float64 `json:"domains_per_sec,omitempty"`
}

func toPoint(r testing.BenchmarkResult) benchPoint {
	p := benchPoint{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if p.NsPerOp > 0 {
		p.ResolutionsS = 1e9 / p.NsPerOp
	}
	return p
}

// worldPoint benchmarks one world-building step: time and allocations per
// call, no resolution rate.
func worldPoint(build func() error) benchPoint {
	p := toPoint(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := build(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	p.ResolutionsS = 0
	return p
}

// TestWriteBenchScanSnapshot regenerates BENCH_scan.json. It only runs when
// BENCH_SNAPSHOT=1 is set (it is a measurement, not a correctness check):
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchScanSnapshot .
//
// An existing baseline section in the file is preserved, so the snapshot
// tracks the perf trajectory against the pre-optimization numbers; delete
// the file to re-baseline.
func TestWriteBenchScanSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to (re)generate BENCH_scan.json")
	}
	_, w, _ := fixtures(t)

	cur := map[string]benchPoint{}

	msg := dnswire.NewQuery(0x1234, dnswire.MustName("valid.extended-dns-errors.com"), dnswire.TypeA)
	msg.Response = true
	msg.AddEDE(9, "no SEP matching the DS found for valid.extended-dns-errors.com.")
	cur["dnswire.Message.Pack"] = toPoint(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := msg.Pack(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	cur["dnswire.Unpack"] = toPoint(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dnswire.Unpack(wire); err != nil {
				b.Fatal(err)
			}
		}
	}))

	for _, workers := range scanWorkerCounts {
		workers := workers
		name := fmt.Sprintf("scan.Resolve/workers=%d", workers)
		cur[name] = toPoint(testing.Benchmark(func(b *testing.B) {
			r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
			r.Now = w.Now
			runParallelResolves(b, r, w.Pop.Domains, workers)
		}))
	}

	// Cold-answer/warm-infrastructure ablation: unique-name resolutions at 32
	// workers with the delegation cache on vs off, with the amplification
	// factor recorded alongside the throughput.
	for _, disable := range []bool{false, true} {
		name := "scan.Resolve/warm-infra/delegation=on"
		if disable {
			name = "scan.Resolve/warm-infra/delegation=off"
		}
		r := newScanResolver(w, disable)
		warmInfra(r, w)
		queries := r.QueryCount.Load()
		resolutions := r.ResolutionCount.Load()
		p := toPoint(testing.Benchmark(func(b *testing.B) {
			runParallelResolves(b, r, w.Pop.Domains, 32)
		}))
		if dr := r.ResolutionCount.Load() - resolutions; dr > 0 {
			p.QueriesPerResolution = float64(r.QueryCount.Load()-queries) / float64(dr)
		}
		cur[name] = p
	}

	// The miss path one resolution at a time (EXPERIMENTS E20): healthy
	// unsigned children of the largest ordinary TLD of each denial flavour,
	// each resolved exactly once — a second ask would start at its cached
	// cut — by one worker, the TLD's keys, cut and chain links warm.
	// resolver's TestColdResolveAllocBudget gates the allocation counts;
	// this records the time beside them.
	coldWild, err := population.Materialize(population.Generate(population.Config{TotalDomains: 30300, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	coldChildren := map[*population.TLD][]dnswire.Name{}
	for _, d := range coldWild.Pop.Domains {
		if d.Class == population.ClassHealthy && d.Keys == nil && !d.TLD.NoProof {
			coldChildren[d.TLD] = append(coldChildren[d.TLD], d.Name)
		}
	}
	for _, flavour := range []string{"nsec3", "nsec"} {
		var children []dnswire.Name
		for tld, under := range coldChildren {
			if tld.NSECDenial == (flavour == "nsec") && len(under) > len(children) {
				children = under
			}
		}
		r := newScanResolver(coldWild, false)
		ctx := context.Background()
		warm, cold := children[:50], children[50:]
		for _, name := range warm {
			r.Resolve(ctx, name, dnswire.TypeA)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, name := range cold {
			r.Resolve(ctx, name, dnswire.TypeA)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		n := uint64(len(cold))
		cur["resolver.ColdResolve/"+flavour] = benchPoint{
			NsPerOp:      float64(elapsed.Nanoseconds()) / float64(n),
			AllocsPerOp:  int64((after.Mallocs - before.Mallocs) / n),
			BytesPerOp:   int64((after.TotalAlloc - before.TotalAlloc) / n),
			ResolutionsS: float64(n) / elapsed.Seconds(),
		}
	}

	// World building (EXPERIMENTS E26): the 101,000-domain population of the
	// campaign_scan workload, generated, then materialised — keys, TLD servers
	// and the signed root — on every processor of the box (cpus below).
	worldCfg := population.Config{TotalDomains: 101000, Seed: 20230515}
	cur["population.Generate/101000"] = worldPoint(func() error {
		population.Generate(worldCfg)
		return nil
	})
	worldPop := population.Generate(worldCfg)
	cur["population.Materialize/101000"] = worldPoint(func() error {
		_, err := population.Materialize(worldPop)
		return err
	})

	// Whole-scan peak heap (scan-attributable growth): the slice path
	// materializes every Result, the streaming path holds O(workers). Run at
	// 10x the bench population so the result storage is visible over scan
	// working memory. Each pass scans a wild of its own, so the two
	// measurements are set up alike.
	for _, stream := range []bool{false, true} {
		name := "scan.WarmScanner/slice/peak-heap"
		if stream {
			name = "scan.WarmScanner/stream/peak-heap"
		}
		wild, err := population.Materialize(population.Generate(population.Config{TotalDomains: 30300, Seed: 42}))
		if err != nil {
			t.Fatal(err)
		}
		var p benchPoint
		start := time.Now()
		p.PeakHeapBytes = peakHeapDuring(func() {
			agg := scan.NewAggregate()
			if stream {
				ctx := context.Background()
				s := scan.WarmScanner(ctx, wild, resolver.ProfileCloudflare(), 32, nil)
				s.ScanStream(ctx, wild.Pop.Names(), func(r scan.Result) { agg.Add(r) })
			} else {
				for _, r := range wildScan(wild, 32) {
					agg.Add(r)
				}
			}
		})
		p.NsPerOp = float64(time.Since(start).Nanoseconds())
		cur[name] = p
	}

	snap := benchSnapshot{
		Note: "scan-path performance trajectory; regenerate with BENCH_SNAPSHOT=1 go test -run TestWriteBenchScanSnapshot .",
		Go:   runtime.Version(),
		CPUs: runtime.NumCPU(),
	}
	if prev, err := os.ReadFile("BENCH_scan.json"); err == nil {
		var old benchSnapshot
		if json.Unmarshal(prev, &old) == nil {
			if old.Baseline != nil {
				snap.Baseline = old.Baseline
			}
			// campaign.* entries come from TestCampaignFullScaleGate's much
			// longer run; keep them across scan-snapshot regenerations.
			for k, v := range old.Current {
				if strings.HasPrefix(k, "campaign.") {
					cur[k] = v
				}
			}
		}
	}
	if snap.Baseline == nil {
		snap.Baseline = cur
	}
	snap.Current = cur

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scan.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_scan.json: %d metrics", len(cur))
}

// TestCampaignFullScaleGate is the campaign engine's 1:1-scale acceptance
// run, gated by BENCH_CAMPAIGN=1 because it is a multi-minute measurement:
//
//	BENCH_CAMPAIGN=1 go test -run TestCampaignFullScaleGate -timeout 30m .
//
// It scans the full reference population (303,000 requested domains — the
// repo's 1:1 scale, 1:1,000 of the paper's 303M) through a single campaign
// shard and gates the scan-attributable peak heap: the ordered stream's
// reorder buffer is O(workers) and the measurement pass runs the answer
// cache read-only, so live memory must not scale with the population. The
// measured domains/sec lands in BENCH_scan.json under campaign.Run/1to1.
func TestCampaignFullScaleGate(t *testing.T) {
	if os.Getenv("BENCH_CAMPAIGN") == "" {
		t.Skip("set BENCH_CAMPAIGN=1 to run the 1:1-scale campaign measurement")
	}
	pop := population.Generate(population.Config{TotalDomains: population.PaperTotal / 1000, Seed: 20230515})
	wild, err := population.Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := campaign.New(campaign.Config{
		Workers:  32,
		Governor: &campaign.GovernorConfig{},
	}, wild)
	if err != nil {
		t.Fatal(err)
	}
	var snap *scan.Snapshot
	var runErr error
	start := time.Now()
	peak := peakHeapDuring(func() { snap, runErr = runner.Run(context.Background()) })
	elapsed := time.Since(start)
	if runErr != nil {
		t.Fatal(runErr)
	}
	total := uint64(len(pop.Domains))
	if snap.Position != total {
		t.Fatalf("campaign finished at %d/%d domains", snap.Position, total)
	}
	rate := float64(snap.Position) / elapsed.Seconds()
	t.Logf("campaign 1:1: %d domains, %d upstream queries in %v (%.0f domains/s), peak scan heap %.1f MiB",
		snap.Position, snap.Queries, elapsed.Round(time.Second), rate, float64(peak)/(1<<20))

	// The gate separates the measured regimes at this scale (2 CPUs): the
	// campaign pass that keeps nothing per scanned name (warmup entries, one
	// cut and key entry per TLD, O(workers) scan state and the GC garbage
	// peakHeapDuring samples) peaks at 44–48 MiB; filing every scanned
	// domain's own zone cut in the shared cache peaks at 235–246 MiB, and
	// re-enabling the write-through answer cache on top at ~340 MiB. 60 MiB
	// gives the good regime ~25% headroom and trips either O(population)
	// shape.
	const heapGate = 60 << 20
	if peak > heapGate {
		t.Errorf("scan-attributable peak heap %d bytes exceeds the %d-byte gate — memory is scaling with the population", peak, heapGate)
	}

	var file benchSnapshot
	if prev, err := os.ReadFile("BENCH_scan.json"); err == nil {
		if err := json.Unmarshal(prev, &file); err != nil {
			t.Fatalf("BENCH_scan.json: %v", err)
		}
	}
	if file.Current == nil {
		file.Current = map[string]benchPoint{}
	}
	file.Current["campaign.Run/1to1/peak-heap"] = benchPoint{
		NsPerOp:       float64(elapsed.Nanoseconds()),
		DomainsPerSec: rate,
		PeakHeapBytes: peak,
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scan.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationNameCompression compares packing a referral-sized message
// with and without RFC 1035 name compression, reporting the size delta.
func BenchmarkAblationNameCompression(b *testing.B) {
	msg := dnswire.NewQuery(1, dnswire.MustName("a.very.long.subdomain.extended-dns-errors.com"), dnswire.TypeA)
	msg.Response = true
	for i := 0; i < 8; i++ {
		host := dnswire.MustName("ns1.a.very.long.subdomain.extended-dns-errors.com")
		msg.Authority = append(msg.Authority, dnswire.RR{
			Name:  dnswire.MustName("a.very.long.subdomain.extended-dns-errors.com"),
			Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: host},
		})
	}
	compressed, _ := msg.Pack()
	plain, _ := msg.PackNoCompress()

	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := msg.Pack(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(compressed)), "bytes/msg")
	})
	b.Run("uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := msg.PackNoCompress(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(plain)), "bytes/msg")
	})
}

// BenchmarkAblationCache compares cold resolutions (fresh resolver, full
// referral chain + validation every time) against warm ones (RRset + zone
// key cache hits).
func BenchmarkAblationCache(b *testing.B) {
	tb, _, _ := fixtures(b)
	var valid testbed.Case
	for _, c := range tb.Cases {
		if c.Label == "valid" {
			valid = c
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := tb.NewResolver(resolver.ProfileCloudflare())
			tb.RunCase(context.Background(), r, valid)
		}
	})
	b.Run("warm", func(b *testing.B) {
		r := tb.NewResolver(resolver.ProfileCloudflare())
		tb.RunCase(context.Background(), r, valid)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.RunCase(context.Background(), r, valid)
		}
	})
}

// BenchmarkAblationProfileIndirection measures the condition→EDE mapping
// layer in isolation: the cost of the vendor-profile indirection
// (resolver.Profile.Report, EXTRA-TEXT included) that lets one engine
// reproduce seven systems.
func BenchmarkAblationProfileIndirection(b *testing.B) {
	p := resolver.ProfileCloudflare()
	conds := []resolver.Condition{
		resolver.ConditionDNSKEYUnobtainable,
		resolver.ConditionUnreachableRefused,
		resolver.ConditionStandbyKSKUnsigned,
	}
	details := map[resolver.Condition]string{
		resolver.ConditionDNSKEYUnobtainable: "no DNSKEY RRset at example.com.",
		resolver.ConditionStandbyKSKUnsigned: "DNSKEY 4711 at example.com. has no covering RRSIG",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if edes := p.Report(conds, details); len(edes) == 0 {
			b.Fatal("empty mapping")
		}
	}
}

// BenchmarkAblationLazyZones measures the lazy wild-referral synthesis (TLD
// servers signing DS/denial material per query) versus a cached repeat of
// the same query, quantifying what zone pre-materialization would save.
func BenchmarkAblationLazyZones(b *testing.B) {
	_, w, _ := fixtures(b)
	var signed *population.Domain
	for _, d := range w.Pop.Domains {
		if d.Keys != nil {
			signed = d
			break
		}
	}
	if signed == nil {
		b.Skip("no signed wild domain")
	}
	q := dnswire.NewQuery(1, signed.Name, dnswire.TypeA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Net.Exchange(context.Background(), signed.TLD.Addr, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving layer (internal/frontend) ---

// benchFrontend builds a frontend over a fresh testbed resolver, on the
// testbed's frozen clock so cached entries stay fresh.
func benchFrontend(tb *testbed.Testbed) *frontend.Frontend {
	r := tb.NewResolver(resolver.ProfileCloudflare())
	return frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{Now: tb.Clock})
}

// BenchmarkFrontendServe measures the serving layer in its three regimes:
// cold (every query is a miss driving a full recursion), warm (every query
// is a sharded-cache hit), and coalesced (many concurrent clients share one
// recursion via singleflight).
func BenchmarkFrontendServe(b *testing.B) {
	tb, _, _ := fixtures(b)
	qname := testbed.ParentZone.Child("valid")

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fe := benchFrontend(tb)
			if _, err := fe.HandleDNS(context.Background(), dnswire.NewQuery(1, qname, dnswire.TypeA)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		fe := benchFrontend(tb)
		q := dnswire.NewQuery(1, qname, dnswire.TypeA)
		if _, err := fe.HandleDNS(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fe.HandleDNS(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		if snap := fe.Metrics().Snapshot(); snap.Hits < uint64(b.N) {
			b.Fatalf("warm bench missed the cache: %+v", snap)
		}
	})
	b.Run("warm-parallel", func(b *testing.B) {
		fe := benchFrontend(tb)
		if _, err := fe.HandleDNS(context.Background(), dnswire.NewQuery(1, qname, dnswire.TypeA)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			q := dnswire.NewQuery(2, qname, dnswire.TypeA)
			for pb.Next() {
				if _, err := fe.HandleDNS(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("coalesced", func(b *testing.B) {
		const clients = 32
		for i := 0; i < b.N; i++ {
			fe := benchFrontend(tb)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := fe.HandleDNS(context.Background(), dnswire.NewQuery(3, qname, dnswire.TypeA)); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		b.ReportMetric(clients, "clients/op")
	})
}

// TestFrontendWarmSpeedup is the tentpole's acceptance check: repeated
// queries served by the warm frontend cache must run at least 10x faster
// than the uncached resolver.Resolve path (a fresh resolver per query, the
// pre-frontend cost of answering every packet with a full recursion). The
// measured gap is typically well over 100x; 10x leaves room for noisy CI.
func TestFrontendWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive comparison skipped in -short mode")
	}
	tb, _, _ := fixtures(t)
	qname := testbed.ParentZone.Child("valid")
	ctx := context.Background()

	const uncachedN = 20
	start := time.Now()
	for i := 0; i < uncachedN; i++ {
		r := tb.NewResolver(resolver.ProfileCloudflare())
		if res := r.Resolve(ctx, qname, dnswire.TypeA); len(res.Msg.Answer) == 0 {
			t.Fatalf("uncached resolution failed: %v", res.Msg.RCode)
		}
	}
	uncachedPer := time.Since(start) / uncachedN

	fe := benchFrontend(tb)
	q := dnswire.NewQuery(1, qname, dnswire.TypeA)
	if _, err := fe.HandleDNS(ctx, q); err != nil {
		t.Fatal(err)
	}
	const warmN = 5000
	start = time.Now()
	for i := 0; i < warmN; i++ {
		if _, err := fe.HandleDNS(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	warmPer := time.Since(start) / warmN

	if snap := fe.Metrics().Snapshot(); snap.Hits != warmN {
		t.Fatalf("warm loop missed the cache: %+v", snap)
	}
	if uncachedPer < 10*warmPer {
		t.Fatalf("warm frontend %v/query vs uncached %v/query: speedup %.1fx, want >= 10x",
			warmPer, uncachedPer, float64(uncachedPer)/float64(warmPer))
	}
	t.Logf("warm frontend %v/query, uncached resolve %v/query (%.0fx)",
		warmPer, uncachedPer, float64(uncachedPer)/float64(warmPer))
}

// --- wire fast path (front door serving) ---

// wireBenchSetup builds a warm frontend over the testbed and returns the
// packed query bytes both cache-hit serve paths start from: a query for the
// testbed case label, asked twice — the fill, then the hit that captures a
// cached failure's image. The testbed clock is frozen, so the cached entry
// never ages out (nor its EDE 13 countdown ticks) mid-measurement.
func wireBenchSetup(t testing.TB, label string) (*frontend.Frontend, []byte) {
	tb, _, _ := fixtures(t)
	fe := benchFrontend(tb)
	q := dnswire.NewQuery(1, testbed.ParentZone.Child(label), dnswire.TypeA)
	for i := 0; i < 2; i++ {
		if _, err := fe.HandleDNS(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	wq, ok := dnswire.ScanQuery(raw)
	if !ok {
		t.Fatal("bench query not scannable")
	}
	if _, ok := fe.ServeWire(wq, 0xFFFF, nil); !ok {
		t.Fatal("wire variant not captured by the warming query")
	}
	return fe, raw
}

// runHitSlowPath is one pre-wire-cache cache hit, exactly what the UDP
// worker did per datagram: unpack the query, handle it at parse level, and
// pack the response back to bytes.
func runHitSlowPath(tb testing.TB, fe *frontend.Frontend, raw, buf []byte) {
	q, err := dnswire.Unpack(raw)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := fe.HandleDNS(context.Background(), q)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := resp.AppendPack(buf[:0]); err != nil {
		tb.Fatal(err)
	}
}

// runHitWire is one wire-cache hit: header scan plus copy-and-patch.
func runHitWire(tb testing.TB, fe *frontend.Frontend, raw, buf []byte) {
	wq, ok := dnswire.ScanQuery(raw)
	if !ok {
		tb.Fatal("scan rejected")
	}
	if _, ok := fe.ServeWire(wq, 0xFFFF, buf[:0]); !ok {
		tb.Fatal("wire fast path declined")
	}
}

// BenchmarkFrontendServeWire compares the two cache-hit serve paths the
// front door chooses between per datagram: the slow path (unpack handled
// upstream, HandleDNS, pack) and the wire fast path (scan, copy, patch), for
// a positive answer and for a cached failure (SERVFAIL + EDE 7 + EDE 13).
func BenchmarkFrontendServeWire(b *testing.B) {
	buf := make([]byte, 0, 4096)
	for _, c := range []struct{ prefix, label string }{{"", "valid"}, {"cachederror-", "rrsig-exp-all"}} {
		fe, raw := wireBenchSetup(b, c.label)
		b.Run(c.prefix+"slow-path", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runHitSlowPath(b, fe, raw, buf)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
		})
		b.Run(c.prefix+"wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runHitWire(b, fe, raw, buf)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
		})
	}
}

// TestFrontdoorWireSpeedupGate is the wire cache's acceptance check (the CI
// frontdoor-bench assertion): a cache hit served from pre-packed wire bytes
// must allocate at least 5x less than the same hit through the slow path and,
// under BENCH_GATES=1, be at least 3x faster. Both sides are measured in the
// same process on the same entry, so the gate is self-relative — the
// committed BENCH_frontdoor.json records the same two paths for the
// trajectory.
func TestFrontdoorWireSpeedupGate(t *testing.T) {
	fe, raw := wireBenchSetup(t, "valid")
	buf := make([]byte, 0, 4096)

	slowAllocs := testing.AllocsPerRun(300, func() { runHitSlowPath(t, fe, raw, buf) })
	wireAllocs := testing.AllocsPerRun(300, func() { runHitWire(t, fe, raw, buf) })
	if wireAllocs*5 > slowAllocs {
		t.Errorf("wire fast path allocates %.1f/op vs slow path %.1f/op, gate is 5x fewer", wireAllocs, slowAllocs)
	}
	if wireAllocs > 2 {
		t.Errorf("wire fast path allocates %.1f/op, budget is 2", wireAllocs)
	}
	if !timingGates() {
		t.Log("timing half skipped: set BENCH_GATES=1 to compare the two paths' ns/op")
		return
	}

	const n = 20000
	measure := func(f func()) time.Duration {
		f() // settle
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start) / n
	}
	// Interleave and keep the minimum of several rounds, so a GC pause or
	// scheduler hiccup on one side cannot fake (or hide) a regression.
	var slowPer, wirePer time.Duration
	for round := 0; round < 3; round++ {
		s := measure(func() { runHitSlowPath(t, fe, raw, buf) })
		w := measure(func() { runHitWire(t, fe, raw, buf) })
		if slowPer == 0 || s < slowPer {
			slowPer = s
		}
		if wirePer == 0 || w < wirePer {
			wirePer = w
		}
	}

	t.Logf("cache hit: slow path %v / %.1f allocs, wire %v / %.1f allocs (%.1fx faster, %.1fx fewer allocs)",
		slowPer, slowAllocs, wirePer, wireAllocs,
		float64(slowPer)/float64(wirePer), slowAllocs/wireAllocs)
	if slowPer < 3*wirePer {
		t.Errorf("wire fast path is %.2fx faster than the slow path, gate is 3x", float64(slowPer)/float64(wirePer))
	}
}

// streamHitWindow is how many queries the stream benchmark keeps pipelined,
// a resolver-to-resolver client's depth (the end-to-end tcp_hot workload
// uses the same).
const streamHitWindow = 32

// streamHitBench serves a warm frontend over loopback TCP, with or without
// the wire fast path, and returns a closed-loop driver: run(n) keeps
// streamHitWindow queries for the cached name pipelined on one connection,
// one Write each, until n are answered.
func streamHitBench(t testing.TB, disableWire bool) (run func(n int)) {
	fe, raw := wireBenchSetup(t, "valid")
	srv := transport.NewServer(transport.Config{Handler: fe, DisableWire: disableWire})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() { defer close(served); srv.ServeTCP(ctx, l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); cancel(); <-served })

	query := append(binary.BigEndian.AppendUint16(nil, uint16(len(raw))), raw...)
	br := bufio.NewReaderSize(conn, 64<<10)
	resp := make([]byte, 2+0xFFFF)
	return func(n int) {
		for sent, done := 0, 0; done < n; done++ {
			for ; sent < n && sent-done < streamHitWindow; sent++ {
				if _, err := conn.Write(query); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := io.ReadFull(br, resp[:2]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(br, resp[2:2+binary.BigEndian.Uint16(resp)]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamPipelinedHit is the cache hit as a stream client sees it:
// framing, the serve path, and the socket both ways, pipelined 32 deep.
// wire is the inline fast path with coalesced writes; nowire (DisableWire)
// is the goroutine-per-query path every declined query still takes.
func BenchmarkStreamPipelinedHit(b *testing.B) {
	for _, mode := range []struct {
		name        string
		disableWire bool
	}{{"wire", false}, {"nowire", true}} {
		b.Run(mode.name, func(b *testing.B) { benchStreamPipelinedHit(b, mode.disableWire) })
	}
}

func benchStreamPipelinedHit(b *testing.B, disableWire bool) {
	run := streamHitBench(b, disableWire)
	run(streamHitWindow) // settle
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
}

// TestStreamWireSpeedupGate is the stream twin of the gate above, end to
// end over loopback TCP: pipelined hits must run at least 1.4x faster with
// the wire fast path than through DisableWire. Self-relative like its twin;
// the margin is smaller because both sides pay for the sockets and the
// client. All timing, so it runs only under BENCH_GATES=1.
func TestStreamWireSpeedupGate(t *testing.T) {
	if !timingGates() {
		t.Skip("set BENCH_GATES=1 to run the wall-clock comparison")
	}
	ratio := fasterBy(t, "pipelined TCP hit, DisableWire against wire",
		streamHitBench(t, true), streamHitBench(t, false), 20000)
	if ratio < 1.4 {
		t.Errorf("wire fast path is %.2fx faster than DisableWire over TCP, gate is 1.4x", ratio)
	}
}

// clusterForwardBench puts a router in front of one remote replica — a warm
// frontend behind its own loopback UDP front door — with the wire relay or,
// under DisableWire, the parsed forward, and returns a closed-loop driver:
// run(n) keeps streamHitWindow queries for the cached name outstanding on
// one client socket until n are answered.
func clusterForwardBench(t testing.TB, disableWire bool) (run func(n int)) {
	fe, raw := wireBenchSetup(t, "valid")
	ctx, cancel := context.WithCancel(context.Background())
	var served sync.WaitGroup
	serve := func(cfg transport.Config) string {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		served.Add(1)
		go func() { defer served.Done(); transport.NewServer(cfg).ServeUDP(ctx, conn) }()
		return conn.LocalAddr().String()
	}
	cl := cluster.New(cluster.Config{Seed: 20230515})
	if err := cl.AddRemote("peer", serve(transport.Config{Handler: fe})); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", serve(transport.Config{Handler: cl, Wire: cl, DisableWire: disableWire}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); cancel(); served.Wait() })

	resp := make([]byte, 0xFFFF)
	return func(n int) {
		// Loopback loses nothing at this depth; a deadline turns a lost
		// datagram into a failure instead of a hang.
		conn.SetReadDeadline(time.Now().Add(time.Minute))
		for sent, done := 0, 0; done < n; done++ {
			for ; sent < n && sent-done < streamHitWindow; sent++ {
				if _, err := conn.Write(raw); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := conn.Read(resp); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterForward is a cached answer owned by a remote replica as a
// UDP client of the router sees it, 32 outstanding: relay forwards the
// datagram raw on the batched peer socket, parsed (DisableWire) unpacks it
// for a worker that packs, forwards, waits, unpacks and packs again.
func BenchmarkClusterForward(b *testing.B) {
	for _, mode := range []struct {
		name        string
		disableWire bool
	}{{"relay", false}, {"parsed", true}} {
		b.Run(mode.name, func(b *testing.B) { benchClusterForward(b, mode.disableWire) })
	}
}

func benchClusterForward(b *testing.B, disableWire bool) {
	run := clusterForwardBench(b, disableWire)
	run(streamHitWindow) // settle: dials the peer socket
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
}

// fasterBy runs two closed-loop drivers alternately, three rounds of n
// operations each, and returns how many times faster fast's best round is
// than slow's.
func fasterBy(t *testing.T, what string, slow, fast func(int), n int) float64 {
	measure := func(run func(int)) time.Duration {
		run(streamHitWindow) // settle
		start := time.Now()
		run(n)
		return time.Since(start) / time.Duration(n)
	}
	var slowPer, fastPer time.Duration
	for round := 0; round < 3; round++ {
		s, f := measure(slow), measure(fast)
		if slowPer == 0 || s < slowPer {
			slowPer = s
		}
		if fastPer == 0 || f < fastPer {
			fastPer = f
		}
	}
	ratio := float64(slowPer) / float64(fastPer)
	t.Logf("%s: %v against %v (%.2fx faster)", what, slowPer, fastPer, ratio)
	return ratio
}

// TestClusterRelaySpeedupGate is the cluster twin of the stream gate: a
// remotely owned hit must come back at least 1.5x faster through the relay
// than through the parsed forward. Self-relative, both sides paying for the
// same three sockets. All timing, so it runs only under BENCH_GATES=1.
func TestClusterRelaySpeedupGate(t *testing.T) {
	if !timingGates() {
		t.Skip("set BENCH_GATES=1 to run the wall-clock comparison")
	}
	ratio := fasterBy(t, "forwarded UDP hit, parsed forward against relay",
		clusterForwardBench(t, true), clusterForwardBench(t, false), 20000)
	if ratio < 1.5 {
		t.Errorf("the relay is %.2fx faster than the parsed forward, gate is 1.5x", ratio)
	}
}

// TestWriteBenchFrontdoorSnapshot regenerates BENCH_frontdoor.json, the
// front door's serving-cost trajectory. Like the scan snapshot it only runs
// under BENCH_SNAPSHOT=1:
//
//	BENCH_SNAPSHOT=1 go test -run TestWriteBenchFrontdoorSnapshot .
//
// The baseline section records the pre-wire-cache cache-hit cost (the slow
// path, re-measured — it is still the code every incompatible query takes),
// and is preserved across regenerations; delete the file to re-baseline.
func TestWriteBenchFrontdoorSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to (re)generate BENCH_frontdoor.json")
	}
	buf := make([]byte, 0, 4096)
	measure := func(fe *frontend.Frontend, raw []byte, run func(testing.TB, *frontend.Frontend, []byte, []byte)) benchPoint {
		return toPoint(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, fe, raw, buf)
			}
		}))
	}
	fe, raw := wireBenchSetup(t, "valid")
	slow, wire := measure(fe, raw, runHitSlowPath), measure(fe, raw, runHitWire)
	errFE, errRaw := wireBenchSetup(t, "rrsig-exp-all")
	scanOnly := toPoint(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := dnswire.ScanQuery(raw); !ok {
				b.Fatal("scan rejected")
			}
		}
	}))

	pipelined := func(disableWire bool) benchPoint {
		return toPoint(testing.Benchmark(func(b *testing.B) { benchStreamPipelinedHit(b, disableWire) }))
	}
	forwarded := func(disableWire bool) benchPoint {
		return toPoint(testing.Benchmark(func(b *testing.B) { benchClusterForward(b, disableWire) }))
	}

	snap := benchSnapshot{
		Note: "front-door cache-hit serving trajectory: baseline is the pre-wire-cache slow path (HandleDNS + pack per hit), current is the wire fast path (scan + copy + patch); frontdoor.cachederror is the same pair for a cached failure (SERVFAIL + EDE 7 + EDE 13, rrsig-exp-all); frontdoor.tcp.pipelined is the same hit end to end over loopback TCP, 32 deep (slowpath = DisableWire); cluster.forward is a hit owned by a remote replica, through the router over loopback UDP, 32 outstanding (relay = raw datagrams on the batched peer socket, parsed = DisableWire); regenerate with BENCH_SNAPSHOT=1 go test -run TestWriteBenchFrontdoorSnapshot .",
		Go:   runtime.Version(),
		CPUs: runtime.NumCPU(),
		Current: map[string]benchPoint{
			"frontdoor.cachehit":          wire,
			"frontdoor.cachehit.slowpath": slow,
			"dnswire.ScanQuery":           scanOnly,

			"frontdoor.cachederror":          measure(errFE, errRaw, runHitWire),
			"frontdoor.cachederror.slowpath": measure(errFE, errRaw, runHitSlowPath),

			"frontdoor.tcp.pipelined":          pipelined(false),
			"frontdoor.tcp.pipelined.slowpath": pipelined(true),

			"cluster.forward.relay":  forwarded(false),
			"cluster.forward.parsed": forwarded(true),
		},
	}
	if prev, err := os.ReadFile("BENCH_frontdoor.json"); err == nil {
		var old benchSnapshot
		if json.Unmarshal(prev, &old) == nil && old.Baseline != nil {
			snap.Baseline = old.Baseline
		}
	}
	if snap.Baseline == nil {
		snap.Baseline = map[string]benchPoint{"frontdoor.cachehit": slow}
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_frontdoor.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	base, cur := snap.Baseline["frontdoor.cachehit"], snap.Current["frontdoor.cachehit"]
	t.Logf("wrote BENCH_frontdoor.json: cache hit %.0f ns/%d allocs (baseline) -> %.0f ns/%d allocs (wire)",
		base.NsPerOp, base.AllocsPerOp, cur.NsPerOp, cur.AllocsPerOp)
}

// TestBenchFrontdoorTrajectory: the committed BENCH_frontdoor.json itself
// records the wire path's gain on a cache hit over the slow-path baseline,
// at least 3× the throughput and at least 5× fewer allocations.
func TestBenchFrontdoorTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCH_frontdoor.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	base, okBase := snap.Baseline["frontdoor.cachehit"]
	cur, okCur := snap.Current["frontdoor.cachehit"]
	if !okBase || !okCur || cur.NsPerOp <= 0 {
		t.Fatalf("BENCH_frontdoor.json lacks frontdoor.cachehit (baseline %v, current %v)", okBase, okCur)
	}
	if speedup := base.NsPerOp / cur.NsPerOp; speedup < 3 {
		t.Errorf("cache hit %.0f ns baseline, %.0f ns current: %.2f×, want ≥ 3×", base.NsPerOp, cur.NsPerOp, speedup)
	}
	if base.AllocsPerOp < 5*cur.AllocsPerOp {
		t.Errorf("cache hit %d allocs baseline, %d current: want ≥ 5× fewer", base.AllocsPerOp, cur.AllocsPerOp)
	}
}

// BenchmarkForwarderOverhead measures the EDE-forwarding hop in isolation.
func BenchmarkForwarderOverhead(b *testing.B) {
	tb, _, _ := fixtures(b)
	r := tb.NewResolver(resolver.ProfileCloudflare())
	f := forwarder.New(forwarder.ResolverUpstream{R: r})
	q := dnswire.NewQuery(1, testbed.ParentZone.Child("valid"), dnswire.TypeA)
	// Warm the resolver cache so the bench isolates the forwarding layer.
	if _, err := f.HandleDNS(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.HandleDNS(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDenialFlavour compares signing cost with NSEC3 (hashed
// chain) against plain NSEC (canonical-order chain) for the same zone shape.
func BenchmarkAblationDenialFlavour(b *testing.B) {
	build := func(nsec bool) {
		z := zone.New(dnswire.MustName("bench.example"), 300)
		z.AddNS(dnswire.MustName("ns1.bench.example"), netip.MustParseAddr("198.18.70.1"))
		for i := 0; i < 50; i++ {
			z.AddAddress(dnswire.MustName(fmt.Sprintf("h%02d.bench.example", i)),
				netip.MustParseAddr("203.0.113.8"))
		}
		if err := z.Sign(zone.SignOptions{
			Algorithm: dnssec.AlgED25519,
			Inception: 1700000000, Expiration: 1800000000,
			DenialNSEC: nsec,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("nsec3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(false)
		}
	})
	b.Run("nsec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(true)
		}
	})
}
