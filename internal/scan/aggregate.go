package scan

import (
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
)

// Aggregate is the §4 analysis over a completed scan.
type Aggregate struct {
	Total int
	// WithEDE counts domains triggering at least one EDE (the 17.7M).
	WithEDE int
	// CodeCounts counts domains per INFO-CODE (a domain with several codes
	// counts once per code), §4.2's per-item numbers.
	CodeCounts map[uint16]int
	// NoErrorWithEDE counts NOERROR responses carrying EDEs (§4.3's 12.2k).
	NoErrorWithEDE int
	// RCodes tallies response codes.
	RCodes map[dnswire.RCode]int
}

// NewAggregate returns an empty accumulator ready for Add.
func NewAggregate() *Aggregate {
	return &Aggregate{
		CodeCounts: make(map[uint16]int),
		RCodes:     make(map[dnswire.RCode]int),
	}
}

// Add folds one scan result into the counters. It allocates nothing on the
// steady state, so a streaming scan can call it once per domain: EDE codes
// are deduplicated with a scan over the (≤ handful of) preceding codes
// instead of a per-result map.
func (a *Aggregate) Add(r Result) {
	if r.Skipped {
		return // cancelled before resolution: no observation to count
	}
	a.Total++
	a.RCodes[r.RCode]++
	if !r.HasEDE() {
		return
	}
	a.WithEDE++
	if r.RCode == dnswire.RCodeNoError {
		a.NoErrorWithEDE++
	}
	for i, c := range r.Codes {
		dup := false
		for _, p := range r.Codes[:i] {
			if p == c {
				dup = true
				break
			}
		}
		if !dup {
			a.CodeCounts[c]++
		}
	}
}

// Merge folds another accumulator (e.g. a per-worker shard of the same scan)
// into a.
func (a *Aggregate) Merge(b *Aggregate) {
	a.Total += b.Total
	a.WithEDE += b.WithEDE
	a.NoErrorWithEDE += b.NoErrorWithEDE
	for c, n := range b.CodeCounts {
		a.CodeCounts[c] += n
	}
	for rc, n := range b.RCodes {
		a.RCodes[rc] += n
	}
}

// CodesByCount returns the observed INFO-CODEs sorted by descending domain
// count — the §4.2 presentation order.
func (a *Aggregate) CodesByCount() []uint16 {
	codes := make([]uint16, 0, len(a.CodeCounts))
	for c := range a.CodeCounts {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool {
		if a.CodeCounts[codes[i]] != a.CodeCounts[codes[j]] {
			return a.CodeCounts[codes[i]] > a.CodeCounts[codes[j]]
		}
		return codes[i] < codes[j]
	})
	return codes
}

// TLDRatio is one TLD's misconfiguration ratio (Figure 1 input).
type TLDRatio struct {
	TLD     string
	CC      bool
	Total   int
	WithEDE int
}

// Ratio returns the percentage of the TLD's domains that trigger EDEs.
func (t TLDRatio) Ratio() float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.WithEDE) / float64(t.Total)
}

// TLDAggregate accumulates per-TLD EDE ratios (Figure 1's input) online. Its
// state is one row per TLD: a result finds its domain with
// Population.Lookup, which needs no per-domain index.
type TLDAggregate struct {
	pop  *population.Population
	rows map[string]*TLDRatio
}

// NewTLDAggregate builds an empty accumulator over pop's TLD table.
func NewTLDAggregate(pop *population.Population) *TLDAggregate {
	t := &TLDAggregate{pop: pop, rows: make(map[string]*TLDRatio, len(pop.TLDs))}
	for _, tld := range pop.TLDs {
		t.rows[tld.Label] = &TLDRatio{TLD: tld.Label, CC: tld.CC}
	}
	return t
}

// Add folds one scan result into its TLD's row. It allocates nothing.
func (t *TLDAggregate) Add(r Result) {
	if r.Skipped || t.pop == nil {
		return
	}
	d, ok := t.pop.Lookup(r.Domain)
	if !ok {
		return
	}
	row := t.rows[d.TLD.Label]
	row.Total++
	if r.HasEDE() {
		row.WithEDE++
	}
}

// Merge folds another accumulator built over the same population into t.
func (t *TLDAggregate) Merge(o *TLDAggregate) {
	for label, row := range o.rows {
		dst, ok := t.rows[label]
		if !ok {
			t.rows[label] = &TLDRatio{TLD: row.TLD, CC: row.CC, Total: row.Total, WithEDE: row.WithEDE}
			continue
		}
		dst.Total += row.Total
		dst.WithEDE += row.WithEDE
	}
}

// Rows returns the populated TLD rows sorted by label.
func (t *TLDAggregate) Rows() []TLDRatio {
	out := make([]TLDRatio, 0, len(t.rows))
	for _, row := range t.rows {
		if row.Total > 0 {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TLD < out[j].TLD })
	return out
}

// CDF returns cumulative-distribution points (x sorted ascending, y in
// [0,1]) for a sample.
func CDF(sample []float64) (xs, ys []float64) {
	if len(sample) == 0 {
		return nil, nil
	}
	xs = append([]float64(nil), sample...)
	sort.Float64s(xs)
	ys = make([]float64, len(xs))
	for i := range xs {
		ys[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ys
}

// Figure1 computes the paper's Figure 1: the CDFs of per-TLD EDE ratios for
// gTLDs and ccTLDs.
func Figure1(rows []TLDRatio) (gtldRatios, cctldRatios []float64) {
	for _, r := range rows {
		if r.CC {
			cctldRatios = append(cctldRatios, r.Ratio())
		} else {
			gtldRatios = append(gtldRatios, r.Ratio())
		}
	}
	return gtldRatios, cctldRatios
}

// ZeroRatioShare returns the fraction of TLDs with no misconfigured domain
// (the paper: 38% of gTLDs, 4% of ccTLDs).
func ZeroRatioShare(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	zero := 0
	for _, r := range ratios {
		if r == 0 {
			zero++
		}
	}
	return float64(zero) / float64(len(ratios))
}

// FullRatioCount returns the number of TLDs where every domain triggers an
// EDE (the paper: 11 gTLDs + 2 ccTLDs).
func FullRatioCount(ratios []float64) int {
	n := 0
	for _, r := range ratios {
		if r >= 100 {
			n++
		}
	}
	return n
}

// TrancoStats is the Tranco-rank analysis (§4.3, Figure 2): the ranks of
// EDE-triggering domains within the popularity list, the overlap size, and
// how many of those resolved NOERROR.
type TrancoStats struct {
	ListSize int
	// Overlap is the number of ranked domains that trigger EDEs (22.1k).
	Overlap int
	// NoError of those resolved with NOERROR (12.2k).
	NoError int
	// Ranks of the overlapping domains, ascending (Figure 2's CDF x-data).
	Ranks []int
}

// TrancoAggregate accumulates the §4.3 popularity-overlap stats online. Its
// live state is O(overlap) — the ranks of EDE-triggering ranked domains —
// which is bounded by the Tranco list size, not the population size.
type TrancoAggregate struct {
	pop   *population.Population
	stats TrancoStats
}

// NewTrancoAggregate builds an empty accumulator over pop's ranking.
func NewTrancoAggregate(pop *population.Population) *TrancoAggregate {
	return &TrancoAggregate{pop: pop, stats: TrancoStats{ListSize: pop.TrancoSize}}
}

// Add folds one scan result into the overlap stats. It allocates nothing but
// the growth of the rank list.
func (t *TrancoAggregate) Add(r Result) {
	if t.pop == nil || !r.HasEDE() {
		return
	}
	d, ok := t.pop.Lookup(r.Domain)
	if !ok || d.Rank == 0 {
		return
	}
	t.stats.Overlap++
	if r.RCode == dnswire.RCodeNoError {
		t.stats.NoError++
	}
	t.stats.Ranks = append(t.stats.Ranks, int(d.Rank))
}

// Merge folds another accumulator built over the same population into t.
func (t *TrancoAggregate) Merge(o *TrancoAggregate) {
	t.stats.Overlap += o.stats.Overlap
	t.stats.NoError += o.stats.NoError
	t.stats.Ranks = append(t.stats.Ranks, o.stats.Ranks...)
}

// Stats returns the accumulated overlap with ranks sorted ascending.
func (t *TrancoAggregate) Stats() TrancoStats {
	sort.Ints(t.stats.Ranks)
	return t.stats
}

// NSConcentration reproduces §4.2 item 2: malfunctioning nameservers sorted
// by the number of domains they strand, plus the fix-top-k curve.
type NSConcentration struct {
	// Counts are per-nameserver stranded-domain counts, descending.
	Counts []int
	// TotalDomains stranded across all broken nameservers.
	TotalDomains int
}

// NSFromPopulation reads the assignment out of the generated population.
func NSFromPopulation(pop *population.Population) NSConcentration {
	var c NSConcentration
	for _, ns := range pop.BrokenNS {
		if ns.Domains > 0 {
			c.Counts = append(c.Counts, ns.Domains)
			c.TotalDomains += ns.Domains
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(c.Counts)))
	return c
}

// FixedShare returns the fraction of stranded domains repaired by fixing the
// k busiest nameservers (the paper: fixing 20k of 293k repairs >81%).
func (c NSConcentration) FixedShare(k int) float64 {
	if c.TotalDomains == 0 {
		return 0
	}
	fixed := 0
	for i := 0; i < k && i < len(c.Counts); i++ {
		fixed += c.Counts[i]
	}
	return float64(fixed) / float64(c.TotalDomains)
}

// ProfileComparison is the multi-vendor wild-scan extension: the paper
// scanned only Cloudflare DNS (§4.1); re-running the same population under
// every vendor profile quantifies how much of the wild picture each
// implementation's EDE support would have surfaced.
type ProfileComparison struct {
	Profile string
	// DomainsWithEDE is how many scanned domains carried any EDE.
	DomainsWithEDE int
	// DistinctCodes counts distinct INFO-CODEs observed.
	DistinctCodes int
	// Servfails counts failed resolutions (EDE or not): detection parity —
	// validators fail the same domains even when they stay silent.
	Servfails int
}

// CompareProfiles summarizes per-profile scan aggregates, most EDE-visible
// profile first.
func CompareProfiles(byProfile map[string]*Aggregate) []ProfileComparison {
	out := make([]ProfileComparison, 0, len(byProfile))
	for name, agg := range byProfile {
		out = append(out, ProfileComparison{
			Profile:        name,
			DomainsWithEDE: agg.WithEDE,
			DistinctCodes:  len(agg.CodeCounts),
			Servfails:      agg.RCodes[dnswire.RCodeServFail],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DomainsWithEDE != out[j].DomainsWithEDE {
			return out[i].DomainsWithEDE > out[j].DomainsWithEDE
		}
		return out[i].Profile < out[j].Profile
	})
	return out
}
