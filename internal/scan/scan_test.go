package scan

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// The shared wild network for scan tests: 1:100,000 scale (3,030 domains).
var (
	wildOnce    sync.Once
	wildVal     *population.Wild
	wildResults []Result
	wildErr     error
)

func sharedWildScan(t *testing.T) (*population.Wild, []Result) {
	t.Helper()
	wildOnce.Do(func() {
		pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 42})
		wildVal, wildErr = population.Materialize(pop)
		if wildErr != nil {
			return
		}
		wildResults, _ = wildScan(wildVal, resolver.ProfileCloudflare(), 16)
	})
	if wildErr != nil {
		t.Fatalf("materialize: %v", wildErr)
	}
	return wildVal, wildResults
}

// wildScan is the §4 scan with every result kept, in population order.
func wildScan(w *population.Wild, profile *resolver.Profile, workers int) ([]Result, *Scanner) {
	ctx := context.Background()
	s := WarmScanner(ctx, w, profile, workers, nil)
	names := make([]dnswire.Name, len(w.Pop.Domains))
	for i, d := range w.Pop.Domains {
		names[i] = d.Name
	}
	return s.Scan(ctx, names), s
}

// fold runs a result slice through the three accumulators in one pass: the
// reference the streamed and merged accumulators are compared with.
func fold(results []Result, pop *population.Population) (*Aggregate, []TLDRatio, TrancoStats) {
	agg, tld, tranco := NewAggregate(), NewTLDAggregate(pop), NewTrancoAggregate(pop)
	for _, r := range results {
		agg.Add(r)
		tld.Add(r)
		tranco.Add(r)
	}
	return agg, tld.Rows(), tranco.Stats()
}

// classCodes lists which EDE codes each population class must produce under
// the Cloudflare profile (§4.2's mapping).
var classCodes = map[population.Class][]uint16{
	population.ClassLameTimeout:       {22},
	population.ClassLameRefused:       {22, 23},
	population.ClassLameServfail:      {22, 23},
	population.ClassPartialUpstream:   {23},
	population.ClassStandby:           {10},
	population.ClassDNSKEYMismatch:    {9},
	population.ClassBogusTLD:          {6},
	population.ClassInvalidData:       {24},
	population.ClassUnsupportedAlg:    {1},
	population.ClassSigExpired:        {7},
	population.ClassNSECMissingTLD:    {12},
	population.ClassUnsupportedDigest: {2},
	population.ClassSigNotYet:         {8},
	population.ClassCachedError:       {13},
	population.ClassIterLoop:          {0},
}

func TestWildClassesProduceExpectedCodes(t *testing.T) {
	w, results := sharedWildScan(t)
	perClass := make(map[population.Class]map[uint16]int)
	classTotal := make(map[population.Class]int)
	for _, r := range results {
		d, ok := w.Pop.Lookup(r.Domain)
		if !ok {
			t.Fatalf("unknown domain %s", r.Domain)
		}
		classTotal[d.Class]++
		m := perClass[d.Class]
		if m == nil {
			m = make(map[uint16]int)
			perClass[d.Class] = m
		}
		for _, c := range r.Codes {
			m[c]++
		}
	}
	for class, want := range classCodes {
		total := classTotal[class]
		if total == 0 {
			t.Errorf("class %s: no domains scanned", class)
			continue
		}
		got := perClass[class]
		for _, code := range want {
			// At least 80% of the class must trigger the code (stale-class
			// refused/silent split and similar variation allowed).
			if got[code] < total*8/10 {
				t.Errorf("class %s: code %d on %d/%d domains (codes seen: %v)",
					class, code, got[code], total, got)
			}
		}
	}
}

func TestWildStaleClass(t *testing.T) {
	w, results := sharedWildScan(t)
	staleSeen := 0
	for _, r := range results {
		d, _ := w.Pop.Lookup(r.Domain)
		if d == nil || d.Class != population.ClassStale {
			continue
		}
		staleSeen++
		has3 := false
		has22 := false
		for _, c := range r.Codes {
			if c == 3 {
				has3 = true
			}
			if c == 22 {
				has22 = true
			}
		}
		if !has3 || !has22 {
			t.Errorf("stale domain %s codes = %v, want 3 and 22", r.Domain, r.Codes)
		}
	}
	if staleSeen == 0 {
		t.Error("no stale-class domains in population")
	}
}

// TestScanPassIsAFunctionOfWildAndProfile: a second §4 pass over the shared
// wild, run after whatever the other tests scanned on it, folds to the same
// aggregates as the first. WarmScanner sets the wild clock instead of
// advancing it, and the stale class's authorities go dark by that clock, so
// the second warm-up still finds them answering and the stale domains still
// surface EDE 3.
func TestScanPassIsAFunctionOfWildAndProfile(t *testing.T) {
	w, first := sharedWildScan(t)
	second, _ := wildScan(w, resolver.ProfileCloudflare(), 16)
	if now := w.Now().Unix(); now != int64(population.MeasureTime) {
		t.Errorf("after a pass the wild clock reads %d, want MeasureTime %d", now, population.MeasureTime)
	}
	want, got := snapOver(w.Pop, first), snapOver(w.Pop, second)
	if !bytes.Equal(got.AggregateBytes(), want.AggregateBytes()) {
		t.Errorf("the second pass over one wild differs from the first: codes %v, want %v",
			got.Agg.CodesByCount(), want.Agg.CodesByCount())
	}
}

func TestWildHealthyResolvesCleanly(t *testing.T) {
	w, results := sharedWildScan(t)
	checkedSigned := false
	for _, r := range results {
		d, _ := w.Pop.Lookup(r.Domain)
		if d == nil {
			continue
		}
		switch d.Class {
		case population.ClassHealthy:
			if r.HasEDE() || r.RCode.String() != "NOERROR" {
				t.Fatalf("healthy %s: rcode=%s codes=%v", r.Domain, r.RCode, r.Codes)
			}
		case population.ClassHealthySigned:
			checkedSigned = true
			if r.HasEDE() || !r.Secure {
				t.Fatalf("healthy-signed %s: secure=%t codes=%v", r.Domain, r.Secure, r.Codes)
			}
		}
	}
	if !checkedSigned {
		t.Error("no healthy-signed domains scanned")
	}
}

func TestSummarizeOrdering(t *testing.T) {
	w, results := sharedWildScan(t)
	agg, _, _ := fold(results, w.Pop)
	// Quota floors inflate tiny scales slightly; the generator records the
	// actual size.
	if agg.Total != len(w.Pop.Domains) {
		t.Fatalf("total = %d, want %d", agg.Total, len(w.Pop.Domains))
	}
	rate := float64(agg.WithEDE) / float64(agg.Total)
	if rate < 0.04 || rate > 0.09 {
		t.Errorf("EDE rate = %.4f, want ~0.058 (paper: 17.7M/303M)", rate)
	}
	// The paper's §4.2 head ordering: 22 > 23 > 10 > 9 > 6.
	order := []uint16{22, 23, 10, 9, 6}
	for i := 1; i < len(order); i++ {
		if agg.CodeCounts[order[i-1]] < agg.CodeCounts[order[i]] {
			t.Errorf("count(%d)=%d < count(%d)=%d — §4.2 ordering broken",
				order[i-1], agg.CodeCounts[order[i-1]], order[i], agg.CodeCounts[order[i]])
		}
	}
	// All 14 paper codes plus the stale combination must appear.
	for _, code := range []uint16{22, 23, 10, 9, 6, 24, 1, 7, 12, 2, 3, 8, 13, 0} {
		if agg.CodeCounts[code] == 0 {
			t.Errorf("code %d absent from the wild scan", code)
		}
	}
}

func TestFigure1Shares(t *testing.T) {
	w, results := sharedWildScan(t)
	_, rows, _ := fold(results, w.Pop)
	g, cc := Figure1(rows)
	gZero, ccZero := ZeroRatioShare(g), ZeroRatioShare(cc)
	// Paper: 38% of gTLDs and 4% of ccTLDs have no misconfigured domain.
	// At small scale sampling noise is large; check the contrast.
	if gZero <= ccZero {
		t.Errorf("gTLD zero-share %.3f <= ccTLD zero-share %.3f", gZero, ccZero)
	}
	full := FullRatioCount(g) + FullRatioCount(cc)
	if full < 13 {
		t.Errorf("fully-misconfigured TLDs = %d, want >= 13", full)
	}
}

func TestFigure2Tranco(t *testing.T) {
	w, results := sharedWildScan(t)
	_, _, stats := fold(results, w.Pop)
	if stats.Overlap == 0 {
		t.Fatal("no Tranco overlap")
	}
	frac := float64(stats.Overlap) / float64(stats.ListSize)
	if frac < 0.005 || frac > 0.05 {
		t.Errorf("Tranco overlap fraction = %.4f, want ~0.0221", frac)
	}
	if stats.NoError == 0 {
		t.Error("no NOERROR-with-EDE domains in Tranco overlap (paper: 12.2k of 22.1k)")
	}
	// Figure 2: ranks spread across the whole list, not clustered at the
	// head or tail (the lattice assignment straddles the midpoint).
	first, last := stats.Ranks[0], stats.Ranks[len(stats.Ranks)-1]
	if first >= stats.ListSize/2 || last <= stats.ListSize/2 {
		t.Errorf("EDE ranks [%d..%d] of %d — not spread across the list", first, last, stats.ListSize)
	}
}

func TestNSFixCurve(t *testing.T) {
	w, _ := sharedWildScan(t)
	conc := NSFromPopulation(w.Pop)
	if conc.TotalDomains == 0 {
		t.Fatal("no stranded domains")
	}
	k := len(w.Pop.BrokenNS) * 68 / 1000
	if k < 1 {
		k = 1
	}
	share := conc.FixedShare(k)
	if share < 0.6 || share > 0.95 {
		t.Errorf("fixing top %d of %d nameservers repairs %.2f, want ~0.81",
			k, len(w.Pop.BrokenNS), share)
	}
}

func TestCDF(t *testing.T) {
	xs, ys := CDF([]float64{3, 1, 2})
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Errorf("xs = %v", xs)
	}
	if ys[2] != 1.0 {
		t.Errorf("ys = %v", ys)
	}
	if xs, ys := CDF(nil); xs != nil || ys != nil {
		t.Error("CDF(nil) not nil")
	}
}

func TestScannerThroughputCounters(t *testing.T) {
	w, _ := sharedWildScan(t)
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	s := NewScanner(r)
	names := make([]dnswire.Name, 0, 50)
	for _, d := range w.Pop.Domains[:50] {
		names = append(names, d.Name)
	}
	results := s.Scan(context.Background(), names)
	if len(results) != 50 {
		t.Fatalf("results = %d", len(results))
	}
	if s.QueryCount == 0 || s.Elapsed <= 0 {
		t.Errorf("counters not filled: queries=%d elapsed=%v", s.QueryCount, s.Elapsed)
	}
}

// TestCompareProfilesExtension scans the same small population through every
// vendor profile — the multi-vendor extension of the paper's single-vendor
// scan. Cloudflare must surface the most EDE-visible domains; every
// validating profile must fail the same DNSSEC-broken domains (detection
// parity, reporting divergence).
func TestCompareProfilesExtension(t *testing.T) {
	pop := population.Generate(population.Config{TotalDomains: 1515, Seed: 21})
	w, err := population.Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	byProfile := make(map[string]*Aggregate)
	for _, p := range resolver.AllProfiles() {
		// One wild serves every profile: each pass sets the wild clock.
		results, _ := wildScan(w, p, 8)
		byProfile[p.Name], _, _ = fold(results, w.Pop)
	}
	rows := CompareProfiles(byProfile)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Profile != "Cloudflare" {
		t.Errorf("most EDE-visible profile = %s (%d domains), want Cloudflare",
			rows[0].Profile, rows[0].DomainsWithEDE)
	}
	var bind, cf ProfileComparison
	for _, r := range rows {
		switch r.Profile {
		case "BIND 9.19.9":
			bind = r
		case "Cloudflare":
			cf = r
		}
	}
	if bind.DomainsWithEDE >= cf.DomainsWithEDE {
		t.Errorf("BIND EDE visibility %d >= Cloudflare %d", bind.DomainsWithEDE, cf.DomainsWithEDE)
	}
	// Detection parity: both fail lame/bogus domains even when silent.
	if bind.Servfails == 0 {
		t.Error("BIND profile failed nothing — detection should be shared")
	}
}

// TestWhatIfFixTopNameservers runs the paper's §4.2 item 2 counterfactual
// end to end: after repairing the top ~7% of broken nameservers, a re-scan
// must show >75% of the previously EDE-22 domains resolving again.
func TestWhatIfFixTopNameservers(t *testing.T) {
	pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 123})
	w, err := population.Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := wildScan(w, resolver.ProfileCloudflare(), 16)
	aggBefore, _, _ := fold(before, w.Pop)
	if aggBefore.CodeCounts[22] == 0 {
		t.Fatal("no lame domains before the fix")
	}

	k := len(pop.BrokenNS) * 68 / 1000
	if k < 1 {
		k = 1
	}
	if got := w.RepairTopNameservers(k); got != k {
		t.Fatalf("repaired %d nameservers, want %d", got, k)
	}

	// Fresh resolver: the error caches of the first scan must not mask the
	// repair.
	names := make([]dnswire.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	after := NewScanner(r).Scan(context.Background(), names)
	aggAfter, _, _ := fold(after, w.Pop)

	// The measured recovery must match what the assignment table predicts
	// (FixedShare); at full scale that prediction is the paper's >81%, and
	// TestNSFixCurve pins the percentage itself.
	conc := NSFromPopulation(pop)
	predicted := conc.FixedShare(k)
	fixedDomains := aggBefore.CodeCounts[22] - aggAfter.CodeCounts[22]
	measured := float64(fixedDomains) / float64(conc.TotalDomains)
	if diff := measured - predicted; diff < -0.10 || diff > 0.10 {
		t.Errorf("repairing top %d of %d nameservers recovered %.0f%% of stranded domains, assignment predicts %.0f%% (EDE22 %d -> %d)",
			k, len(pop.BrokenNS), 100*measured, 100*predicted,
			aggBefore.CodeCounts[22], aggAfter.CodeCounts[22])
	}
	if fixedDomains <= 0 {
		t.Error("repair had no measurable effect")
	}
}

// TestScanHonorsCancellation checks that a cancelled context stops the scan
// promptly: undispatched names come back Skipped rather than being drained
// through the resolver, and the aggregation ignores them.
func TestScanHonorsCancellation(t *testing.T) {
	w, _ := sharedWildScan(t)
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	s := NewScanner(r)
	s.Workers = 4

	names := make([]dnswire.Name, len(w.Pop.Domains))
	for i, d := range w.Pop.Domains {
		names[i] = d.Name
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: everything must be skipped fast
	results := s.Scan(ctx, names)
	if len(results) != len(names) {
		t.Fatalf("got %d results for %d names", len(results), len(names))
	}
	skipped := 0
	for i, res := range results {
		if res.Skipped {
			skipped++
			if res.Domain != names[i] {
				t.Fatalf("skipped result %d carries domain %q, want %q", i, res.Domain, names[i])
			}
		}
	}
	// The workers may race the cancellation for the first few dispatches;
	// the overwhelming majority must be skipped, untouched by the resolver.
	if skipped < len(names)-s.Workers {
		t.Fatalf("only %d/%d names skipped after cancellation", skipped, len(names))
	}
	if agg, _, _ := fold(results, w.Pop); agg.Total != len(names)-skipped {
		t.Fatalf("aggregate counted %d observations, want %d (skipped must not count)", agg.Total, len(names)-skipped)
	}
}
