package scan

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// TestRegistryUnderScanLoad is the telemetry race test: a 32-worker scan
// hammers the resolver and netsim counters while concurrent goroutines
// scrape the registry (both expositions) and a latecomer registers new
// series mid-scan. Run under -race in CI, this proves the registry's lock
// discipline and the counters' atomics hold at full scan concurrency.
func TestRegistryUnderScanLoad(t *testing.T) {
	w, _ := sharedWildScan(t)

	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg)
	w.Net.RegisterMetrics(reg)

	s := NewScanner(r)
	s.Workers = 32
	domains := w.Pop.Domains
	if testing.Short() {
		domains = domains[:303]
	}
	names := make([]dnswire.Name, len(domains))
	for i, d := range domains {
		names[i] = d.Name
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func(g int) {
			defer scrapers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					if err := reg.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				} else {
					reg.Value("edelab_resolver_queries_total") // what edescan -progress reads
				}
				// Late registration racing the scrapes and the scan:
				// lookup is idempotent, so this must neither dup nor race.
				reg.Counter("edelab_scan_scrapes_total", "Scrapes issued by the race test.",
					telemetry.L("scraper", string(rune('a'+g)))).Inc()
			}
		}(g)
	}

	results := s.Scan(context.Background(), names)
	close(stop)
	scrapers.Wait()

	if len(results) != len(names) {
		t.Fatalf("scan finished %d of %d domains", len(results), len(names))
	}
	if v, ok := reg.Value("edelab_resolver_resolutions_total"); !ok || uint64(v) < uint64(len(names)) {
		t.Fatalf("resolutions_total = %v (ok=%v), scanned %d", v, ok, len(names))
	}
	queries, ok := reg.Value("edelab_resolver_queries_total")
	if !ok || queries <= 0 {
		t.Fatalf("queries_total = %v (ok=%v)", queries, ok)
	}
	netQ, ok := reg.Value("edelab_netsim_queries_total")
	if !ok || netQ < queries {
		t.Fatalf("netsim saw %v queries, resolver issued %v", netQ, queries)
	}

	for layer, want := range map[string]int{"answer": r.Cache.Len(), "delegation": r.Cache.DelegationLen(), "keys": r.Cache.KeyLen()} {
		if v, ok := reg.Value("edelab_resolver_cache_entries", telemetry.L("layer", layer)); !ok || int(v) != want || want == 0 {
			t.Errorf("cache_entries{layer=%q} = %v (ok=%v), the cache holds %d", layer, v, ok, want)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"edelab_resolver_resolutions_total",
		"edelab_resolver_cache_events_total",
		"edelab_resolver_rtt_seconds_bucket",
		"edelab_netsim_events_total",
		"edelab_scan_scrapes_total",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("final exposition missing %s", fam)
		}
	}
}
