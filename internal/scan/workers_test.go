package scan

import (
	"fmt"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// outcome is what a domain's scan result says, in a comparable form: the
// RCODE, the sorted EDE codes and the sorted conditions.
func outcome(r Result) string {
	codes := slices.Clone(r.Codes)
	slices.Sort(codes)
	conds := slices.Clone(r.Conditions)
	slices.Sort(conds)
	return fmt.Sprintf("%v codes=%v conditions=%v", r.RCode, codes, conds)
}

// TestWorkersDoNotChangeOutcomes: a scan's per-domain outcomes are a function
// of the world and the profile, not of how many workers share the resolver's
// caches and signature memo. The seed-1 world is scanned through
// WarmScanner at 1 worker and at 32, and every domain must come out the same;
// a failure names each domain that differs, with both outcomes.
func TestWorkersDoNotChangeOutcomes(t *testing.T) {
	w, err := population.Materialize(population.Generate(population.Config{TotalDomains: 3030, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := wildScan(w, resolver.ProfileCloudflare(), 1)
	parallel, _ := wildScan(w, resolver.ProfileCloudflare(), 32)
	differ := 0
	for i := range serial {
		if a, b := outcome(serial[i]), outcome(parallel[i]); a != b {
			differ++
			t.Errorf("%s: 1 worker: %s; 32 workers: %s", w.Pop.Domains[i].Name, a, b)
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d domains differ between 1 and 32 workers", differ, len(serial))
	}
}
