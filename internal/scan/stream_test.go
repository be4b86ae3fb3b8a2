package scan

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// countingSource wraps a NameSource, tracking how many names have been
// handed to workers so the test can bound the number of in-flight results.
type countingSource struct {
	src       NameSource
	dispensed atomic.Int64
}

func (c *countingSource) Next() (dnswire.Name, bool) {
	n, ok := c.src.Next()
	if ok {
		c.dispensed.Add(1)
	}
	return n, ok
}

// build10x materializes the 10x scan-test population (30,300 domains).
func build10x(t *testing.T) *population.Wild {
	t.Helper()
	w, err := population.Materialize(population.Generate(population.Config{TotalDomains: 30300, Seed: 42}))
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return w
}

// TestScanStreamMatchesSlicePath: ScanStream over a 10x population must
// produce Summarize/PerTLD/Figure 1–2 aggregates identical to the
// slice-based Scan path. Both passes run over one wild, each with a resolver
// of its own, and single-worker: a resolver learns SRTTs on shared broken
// nameservers, so results are only well-defined for a fixed query order —
// two concurrent scans differ from *each other* regardless of path. The
// concurrent O(workers) memory bound is TestScanStreamBoundsLiveResults.
func TestScanStreamMatchesSlicePath(t *testing.T) {
	if testing.Short() {
		t.Skip("10x-population streaming scan skipped in -short mode")
	}
	w := build10x(t)
	// Slice path.
	results, _ := wildScan(w, resolver.ProfileCloudflare(), 1)
	wantAgg, wantRows, wantStats := fold(results, w.Pop)

	// Streaming path.
	agg := NewAggregate()
	tldAgg := NewTLDAggregate(w.Pop)
	trancoAgg := NewTrancoAggregate(w.Pop)
	s := WarmScanner(context.Background(), w, resolver.ProfileCloudflare(), 1, nil)
	n := s.ScanStream(context.Background(), w.Pop.Names(), func(res Result) {
		agg.Add(res)
		tldAgg.Add(res)
		trancoAgg.Add(res)
	})

	if want := len(w.Pop.Domains); n != want {
		t.Fatalf("streamed %d results, want %d", n, want)
	}
	if s.QueriesPerResolution <= 0 {
		t.Errorf("QueriesPerResolution = %v, want > 0", s.QueriesPerResolution)
	}
	if !reflect.DeepEqual(agg, wantAgg) {
		t.Errorf("streamed Aggregate differs from slice path:\n stream: %+v\n  slice: %+v", agg, wantAgg)
	}
	if rows := tldAgg.Rows(); !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("streamed PerTLD rows differ from slice path (%d vs %d rows)", len(rows), len(wantRows))
	}
	if stats := trancoAgg.Stats(); !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("streamed Tranco stats differ from slice path:\n stream: %+v\n  slice: %+v", stats, wantStats)
	}
	// Figure 1 is a pure function of the PerTLD rows, so row equality above
	// implies figure equality; assert the derived curves anyway.
	g1, c1 := Figure1(tldAgg.Rows())
	g2, c2 := Figure1(wantRows)
	if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(c1, c2) {
		t.Error("Figure 1 curves differ between streamed and slice paths")
	}
}

// TestScanStreamBoundsLiveResults is the constant-memory property at full
// concurrency: a 16-worker streamed scan of the 10x population must (a)
// never hold more than O(workers) live results — each worker owns at most
// one unfinished resolution — and (b) run its sink strictly serialized.
func TestScanStreamBoundsLiveResults(t *testing.T) {
	if testing.Short() {
		t.Skip("10x-population streaming scan skipped in -short mode")
	}
	const workers = 16
	w := build10x(t)
	src := &countingSource{src: w.Pop.Names()}
	var (
		emitted     atomic.Int64
		inSink      atomic.Int64
		maxLive     int64
		maxSinkConc int64
	)
	s := WarmScanner(context.Background(), w, resolver.ProfileCloudflare(), workers, nil)
	n := s.ScanStream(context.Background(), src, func(res Result) {
		if c := inSink.Add(1); c > maxSinkConc {
			maxSinkConc = c
		}
		if live := src.dispensed.Load() - emitted.Load(); live > maxLive {
			maxLive = live
		}
		emitted.Add(1)
		inSink.Add(-1)
	})

	if want := len(w.Pop.Domains); n != want {
		t.Fatalf("streamed %d results, want %d", n, want)
	}
	if maxSinkConc != 1 {
		t.Errorf("sink ran with concurrency %d, want serialized (1)", maxSinkConc)
	}
	if maxLive > workers {
		t.Errorf("live results peaked at %d, want <= %d workers", maxLive, workers)
	}
}

// TestScanStreamHonorsCancellation mirrors the slice path's semantics: a
// cancelled context drains the source emitting Skipped results, one per
// name, instead of resolving.
func TestScanStreamHonorsCancellation(t *testing.T) {
	w, _ := sharedWildScan(t)
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	s := NewScanner(r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	names := []dnswire.Name{
		dnswire.MustName("a.example.test"),
		dnswire.MustName("b.example.test"),
		dnswire.MustName("c.example.test"),
	}
	skipped := 0
	n := s.ScanStream(ctx, SliceSource(names), func(res Result) {
		if res.Skipped {
			skipped++
		}
	})
	if n != len(names) || skipped != len(names) {
		t.Fatalf("emitted %d results (%d skipped), want all %d skipped", n, skipped, len(names))
	}
}

// TestAggregateMergeMatchesSummarize shards a real scan's results across two
// accumulators of each kind and merges them: the per-worker merge path must
// agree with the single-pass one.
func TestAggregateMergeMatchesSummarize(t *testing.T) {
	w, results := sharedWildScan(t)
	want, wantRows, wantStats := fold(results, w.Pop)
	a, b := NewAggregate(), NewAggregate()
	ta, tb := NewTLDAggregate(w.Pop), NewTLDAggregate(w.Pop)
	ra, rb := NewTrancoAggregate(w.Pop), NewTrancoAggregate(w.Pop)
	for i, res := range results {
		if i%2 == 0 {
			a.Add(res)
			ta.Add(res)
			ra.Add(res)
		} else {
			b.Add(res)
			tb.Add(res)
			rb.Add(res)
		}
	}
	a.Merge(b)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("merged Aggregate differs:\n merged: %+v\n   want: %+v", a, want)
	}
	ta.Merge(tb)
	if !reflect.DeepEqual(ta.Rows(), wantRows) {
		t.Error("merged TLDAggregate rows differ from the single-pass fold")
	}
	ra.Merge(rb)
	if !reflect.DeepEqual(ra.Stats(), wantStats) {
		t.Error("merged TrancoAggregate stats differ from the single-pass fold")
	}
}

// TestAggregateAddAllocGate extends the repo's alloc gates to the streaming
// accumulator: once the code/rcode keys exist, Add must not allocate — it
// runs once per domain at 303M scale.
func TestAggregateAddAllocGate(t *testing.T) {
	a := NewAggregate()
	res := Result{
		Domain: dnswire.MustName("gate.example.test"),
		RCode:  dnswire.RCodeServFail,
		Codes:  []uint16{22, 23, 22}, // duplicate exercises the slice-scan dedup
	}
	a.Add(res) // warm the map keys
	allocs := testing.AllocsPerRun(100, func() { a.Add(res) })
	if allocs > 0 {
		t.Errorf("Aggregate.Add allocates %.1f times per call, want 0", allocs)
	}
}

// TestPopulationAggregatesIndexNothing: TLDAggregate and TrancoAggregate find
// a result's domain with Population.Lookup instead of each building a
// name→domain map, so Add allocates nothing and building both over 30,300
// domains costs what it costs over 3,030 — the same 1,475 TLDs, O(TLDs), not
// O(domains).
func TestPopulationAggregatesIndexNothing(t *testing.T) {
	type cost struct{ allocs, bytes uint64 }
	build := func(n int) cost {
		pop := population.Generate(population.Config{TotalDomains: n, Seed: 42})
		results := synthResults(pop)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tld, tranco := NewTLDAggregate(pop), NewTrancoAggregate(pop)
		for _, r := range results {
			tld.Add(r)
			tranco.Add(r)
		}
		runtime.ReadMemStats(&after)

		// Every Add that does not grow the rank list: a ranked domain without
		// an EDE, an unranked one with, a skipped result, an unknown name.
		var sample []Result
		for _, ranked := range []bool{true, false} {
			for _, r := range results {
				if d, _ := pop.Lookup(r.Domain); (d.Rank != 0) == ranked && r.HasEDE() != ranked {
					sample = append(sample, r)
					break
				}
			}
		}
		sample = append(sample, Result{Domain: results[0].Domain, Skipped: true},
			Result{Domain: dnswire.MustName("d999999.nowhere"), Codes: []uint16{22}})
		if len(sample) != 4 {
			t.Fatalf("%d domains: sample has %d results, want 4", n, len(sample))
		}
		if a := testing.AllocsPerRun(100, func() {
			for _, r := range sample {
				tld.Add(r)
				tranco.Add(r)
			}
		}); a != 0 {
			t.Errorf("%d domains: TLDAggregate.Add + TrancoAggregate.Add allocate %.1f times per sample, want 0", n, a)
		}
		return cost{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
	}
	small, big := build(3030), build(30300)
	t.Logf("building both aggregates and folding every domain: %d allocs / %d B at 3,030 domains, %d allocs / %d B at 30,300",
		small.allocs, small.bytes, big.allocs, big.bytes)
	if big.allocs > small.allocs+8 || big.bytes > small.bytes+small.bytes/4 {
		t.Errorf("the aggregates' cost grows with the population: %+v at 3,030 domains, %+v at 30,300", small, big)
	}
}
