package resolver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// TestCachedResolveAllocBudget gates the scan fast path: once a name is
// cached, Resolve must cost only the handful of allocations needed to build
// the response message (DESIGN.md §5b). A regression here multiplies across
// every warm resolution of a wild scan.
func TestCachedResolveAllocBudget(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("www.example.com")
	ctx := context.Background()
	r.Resolve(ctx, name, dnswire.TypeA) // populate the cache

	allocs := testing.AllocsPerRun(200, func() {
		res := r.Resolve(ctx, name, dnswire.TypeA)
		if res.Msg.RCode != dnswire.RCodeNoError {
			t.Fatalf("unexpected rcode %s", res.Msg.RCode)
		}
	})
	// A warm hit builds the resolution state, the response Message, its
	// question slice, the OPT record, and the Result — nothing else.
	if allocs > 8 {
		t.Fatalf("cached Resolve allocates %.1f/op, budget 8", allocs)
	}
}

// TestTraceDisabledAllocParity proves the tracer's nil fast path: resolving
// through a context that explicitly carries a nil span — the canonical
// "tracing disabled" state — must cost exactly the same allocations as a
// bare context. The repo-root TestTraceOverheadGate extends this with the
// ns/op bound over the 32-worker scan bench.
func TestTraceDisabledAllocParity(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("www.example.com")
	plain := context.Background()
	nilSpan := telemetry.WithSpan(context.Background(), nil)
	r.Resolve(plain, name, dnswire.TypeA) // populate the cache

	base := testing.AllocsPerRun(200, func() {
		r.Resolve(plain, name, dnswire.TypeA)
	})
	withNil := testing.AllocsPerRun(200, func() {
		r.Resolve(nilSpan, name, dnswire.TypeA)
	})
	if base > 8 {
		t.Fatalf("cached Resolve allocates %.1f/op, budget 8", base)
	}
	if withNil != base {
		t.Fatalf("disabled tracing changed the alloc profile: %.1f/op with nil span vs %.1f/op bare (must add 0)", withNil, base)
	}
}

// TestTraceEnabledRecordsResolution sanity-checks the other side: with a live
// trace in the context, a resolution must produce a span tree that names the
// delegation steps. (The full Table 3 verdict assertions live in
// internal/testbed, which can build the paper's misconfigured zones.)
func TestTraceEnabledRecordsResolution(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("www.example.com")
	ctx, tr := telemetry.StartTrace(context.Background(), "www.example.com. A")
	res := r.Resolve(ctx, name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("unexpected rcode %s", res.Msg.RCode)
	}
	out := tr.Render()
	for _, want := range []string{
		"resolve www.example.com. A",
		"zone .",
		"zone com.",
		"zone example.com.",
		"query www.example.com. A @",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// A second, cached resolution must still trace the cache decision.
	ctx2, tr2 := telemetry.StartTrace(context.Background(), "warm")
	r.Resolve(ctx2, name, dnswire.TypeA)
	if out2 := tr2.Render(); !strings.Contains(out2, "answer cache: fresh hit") {
		t.Errorf("warm trace missing cache-hit event:\n%s", out2)
	}
}

// TestCacheMaxEntriesHoldsUnderChurn drives far more distinct questions
// through the cache than maxEntries allows and checks the bound holds, that
// eviction prefers entries already past the stale window, and that the cache
// still answers.
func TestCacheMaxEntriesHoldsUnderChurn(t *testing.T) {
	const maxEntries = 256 // 4 shards of 64
	c := newCache(maxEntries)
	now := time.Unix(tNow, 0)

	for i := 0; i < 10000; i++ {
		key := cacheKey{name: dnswire.MustName(fmt.Sprintf("churn-%d.example.com.", i)), qtype: dnswire.TypeA}
		c.putAnswer(key, &cachedAnswer{rcode: dnswire.RCodeNoError}, now, time.Hour)
	}
	// Each shard may briefly sit at its per-shard cap; the total must never
	// exceed maxEntries.
	if n := c.Len(); n > maxEntries {
		t.Fatalf("cache grew to %d entries, cap %d", n, maxEntries)
	}
	if n := c.Len(); n == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}

	// Expired-first preference: fill with entries far past the stale window,
	// then insert fresh ones; the dead entries must be the ones to go.
	c.Flush()
	dead := time.Unix(tNow-10*86400, 0)
	for i := 0; i < 512; i++ {
		key := cacheKey{name: dnswire.MustName(fmt.Sprintf("dead-%d.example.com.", i)), qtype: dnswire.TypeA}
		c.putAnswer(key, &cachedAnswer{}, dead, time.Minute)
	}
	for i := 0; i < 512; i++ {
		key := cacheKey{name: dnswire.MustName(fmt.Sprintf("live-%d.example.com.", i)), qtype: dnswire.TypeA}
		c.putAnswer(key, &cachedAnswer{}, now, time.Hour)
	}
	live := 0
	for i := 0; i < 512; i++ {
		key := cacheKey{name: dnswire.MustName(fmt.Sprintf("live-%d.example.com.", i)), qtype: dnswire.TypeA}
		if _, fresh, ok := c.getAnswer(key, now); ok && fresh {
			live++
		}
	}
	if live < maxEntries/2 {
		t.Errorf("only %d of the fresh entries survived churn against expired ones (cap %d)", live, maxEntries)
	}
}

// TestCacheKeysBounded: the zone-key map obeys maxEntries like the answer and
// cut maps, so a serving resolver does not keep one entry for every signed
// zone it has ever validated. The bound is exact below 64 entries too, where
// a cap of 64 shards of at least one entry each once held 64.
func TestCacheKeysBounded(t *testing.T) {
	const maxEntries = 8
	c := newCache(maxEntries)
	now := time.Unix(tNow, 0)
	for i := 0; i < 100; i++ {
		zone := dnswire.MustName(fmt.Sprintf("zone-%d.example.", i))
		c.putKeys(zone, &zoneKeys{secure: true, expiresAt: now.Add(time.Hour)}, now)
		c.putAnswer(cacheKey{name: zone, qtype: dnswire.TypeA}, &cachedAnswer{}, now, time.Hour)
		c.putDelegation(zone, cutBody{}, now, time.Hour)
	}
	for m, n := range map[string]int{"key": c.KeyLen(), "answer": c.Len(), "cut": c.DelegationLen()} {
		if n != maxEntries {
			t.Errorf("100 zones left %d %s entries, cap %d", n, m, maxEntries)
		}
	}
	if _, ok := c.getKeys(dnswire.MustName("zone-99.example."), now); !ok {
		t.Error("the zone stored last was evicted by its own insert")
	}
}

// TestCacheConcurrentChurn hammers all shards from many goroutines under a
// small cap; run with -race this verifies the sharded maps are sound.
func TestCacheConcurrentChurn(t *testing.T) {
	const maxEntries = 128
	c := newCache(maxEntries)
	now := time.Unix(tNow, 0)
	zone := dnswire.MustName("example.com.")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := cacheKey{name: dnswire.MustName(fmt.Sprintf("g%d-%d.example.com.", g, i)), qtype: dnswire.TypeA}
				c.putAnswer(key, &cachedAnswer{}, now, time.Hour)
				c.getAnswer(key, now)
				if i%7 == 0 {
					c.putKeys(zone, &zoneKeys{secure: true, expiresAt: now.Add(time.Hour)}, now)
				}
				c.getKeys(zone, now)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > maxEntries {
		t.Fatalf("cache grew to %d entries under concurrent churn, cap %d", n, maxEntries)
	}
}

// coldResolveWorld builds a small wild population and a resolver whose
// infrastructure caches are warm for the biggest ordinary TLD of each denial
// flavour, and returns it with the healthy unsigned children of those TLDs
// ("nsec3" and "nsec") that no one has asked about yet.
func coldResolveWorld(t *testing.T) (*Resolver, map[string][]dnswire.Name) {
	t.Helper()
	pop := population.Generate(population.Config{TotalDomains: 6060, Seed: 20230515})
	w, err := population.Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	r := New(w.Net, w.Roots, w.Anchor, ProfileCloudflare())
	r.Now = w.Now
	r.AnswerCacheReadOnly = true

	perTLD := make(map[*population.TLD][]dnswire.Name)
	for _, d := range pop.Domains {
		if d.Class == population.ClassHealthy && d.Keys == nil {
			perTLD[d.TLD] = append(perTLD[d.TLD], d.Name)
		}
	}
	cold := make(map[string][]dnswire.Name)
	for tld, names := range perTLD {
		flavour := "nsec3"
		if tld.NSECDenial {
			flavour = "nsec"
		}
		if len(names) > len(cold[flavour]) {
			cold[flavour] = names
		}
	}
	ctx := context.Background()
	for flavour, names := range cold {
		if len(names) < 150 {
			t.Fatalf("largest %s TLD has only %d healthy unsigned children", flavour, len(names))
		}
		// Warm the TLD's keys, its zone cut and (NSEC3) the memo's view of
		// the chain links these children share.
		for _, n := range names[:40] {
			if res := r.Resolve(ctx, n, dnswire.TypeA); res.Msg.RCode != dnswire.RCodeNoError {
				t.Fatalf("warm-up %s: rcode %s", n, res.Msg.RCode)
			}
		}
		cold[flavour] = names[40:]
	}
	return r, cold
}

// TestColdResolveAllocBudget gates the scan's miss path exactly: resolving a
// never-seen unsigned domain under a TLD whose keys and cut are cached — the
// paper's scan does nothing else 99% of the time — costs a fixed number of
// allocations, which machine load cannot move. Ceilings are 10% above what
// the tree measures (EXPERIMENTS E20).
func TestColdResolveAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate") // the race detector's sync.Pool drops items at random
	}
	r, cold := coldResolveWorld(t)
	ctx := context.Background()
	// Measured 77 under the NSEC3 TLD and 85 under the NSEC TLD, from 149 and
	// 147 before PR 20.
	for flavour, ceiling := range map[string]float64{"nsec3": 85, "nsec": 94} {
		names := cold[flavour]
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			res := r.Resolve(ctx, names[i], dnswire.TypeA)
			i++
			if res.Msg.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) == 0 {
				t.Fatalf("%s: rcode %s, %d answers", names[i-1], res.Msg.RCode, len(res.Msg.Answer))
			}
		})
		t.Logf("cold resolution under a warmed %s TLD: %.1f allocs", flavour, allocs)
		if allocs > ceiling {
			t.Errorf("cold resolution under a warmed %s TLD allocates %.1f/op, ceiling %.0f", flavour, allocs, ceiling)
		}
	}
}
