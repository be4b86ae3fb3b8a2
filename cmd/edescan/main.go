// Command edescan reproduces Section 4 of the paper: it generates the
// synthetic registered-domain population (default 1:1,000 scale — 303,000
// domains), scans it through the Cloudflare-profile resolver zdns-style, and
// prints the §4.2 per-code table, Figures 1 and 2, and the nameserver
// concentration analysis.
//
// Usage:
//
//	edescan                      # full run at default scale
//	edescan -domains 30300       # 1:10,000 scale
//	edescan -figure 1 -csv       # Figure 1 data as CSV
//	edescan -fixcurve            # §4.2 item 2 fix-top-k curve
//
// Campaign mode (-shards > 0) runs one shard of a sharded, checkpointed,
// rate-limited campaign; shard snapshots merge with edereport -merge:
//
//	edescan -shards 4 -shard 0 -checkpoint-dir ckpt -progress 2s
//	edescan -shards 4 -shard 0 -checkpoint-dir ckpt -resume   # after a kill
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

func main() {
	domains := flag.Int("domains", population.PaperTotal/1000, "population size (paper: 303M; default 1:1,000)")
	seed := flag.Uint64("seed", 20230515, "population seed")
	workers := flag.Int("workers", 64, "scanner concurrency")
	figure := flag.Int("figure", 0, "print only figure 1 or 2")
	csv := flag.Bool("csv", false, "emit figure data as CSV instead of ASCII plots")
	fixcurve := flag.Bool("fixcurve", false, "print the broken-nameserver fix curve")
	profile := flag.String("profile", "cloudflare", "vendor profile (cloudflare, bind, unbound, powerdns, knot, quad9, opendns) or 'compare' for all")
	whatifFix := flag.Int("whatif-fix", 0, "after the scan, repair the k busiest broken nameservers and re-scan (the paper's 'fixing 20k repairs >81%' counterfactual)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the scan) to this file")
	chaos := flag.String("chaos", "", "inject faults into the simulated network, e.g. 'loss=0.2,lat=100ms' (see internal/netsim.ParseFaultProfile)")
	chaosSeed := flag.Uint64("chaos-seed", 20230515, "seed for the fault plan; same seed + same flags replays the identical scan")
	retries := flag.Int("retries", 0, "resolver attempts per authoritative server (0 = single-shot legacy behaviour)")
	retryBudget := flag.Int("retry-budget", 0, "total upstream queries per resolution step across all servers (0 = unlimited)")
	aggOnly := flag.Bool("agg-only", false, "stream results straight into the aggregates without materializing per-domain results (O(workers) memory; required headroom for 303M-scale runs)")
	progress := flag.Duration("progress", 0, "print live scan progress (domains/sec, queries/resolution, aggregate EDE counts) to stderr at this interval, e.g. -progress 2s")
	shards := flag.Int("shards", 0, "campaign mode: total shard count (0 = classic single-process scan)")
	shard := flag.Int("shard", 0, "campaign mode: this process's 0-based shard index")
	checkpointDir := flag.String("checkpoint-dir", "", "campaign mode: directory for shard checkpoint snapshots")
	checkpointInterval := flag.Duration("checkpoint-interval", 5*time.Second, "campaign mode: wall time between periodic checkpoint writes")
	resume := flag.Bool("resume", false, "campaign mode: continue from the shard's checkpoint instead of starting over")
	maxQPS := flag.Float64("max-qps", 0, "campaign mode: global upstream queries/sec cap for this shard (0 = unlimited)")
	authorityQPS := flag.Float64("authority-qps", 0, "campaign mode: upstream queries/sec cap per authoritative address (0 = unlimited)")
	scale := flag.Float64("scale", 0, "population as a multiple of the 1:1 reference scale (303,000 domains); overrides -domains when > 0")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edescan: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "edescan: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "edescan: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "edescan: memprofile: %v\n", err)
			}
		}()
	}

	if *scale > 0 {
		*domains = int(*scale * float64(population.PaperTotal/1000))
	}
	fmt.Fprintf(os.Stderr, "generating population: %d domains across 1,475 TLDs (seed %d) ...\n", *domains, *seed)
	pop := population.Generate(population.Config{TotalDomains: *domains, Seed: *seed})
	wild, err := population.Materialize(pop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edescan: materialize: %v\n", err)
		os.Exit(1)
	}

	if *chaos != "" {
		fp, err := netsim.ParseFaultProfile(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edescan: -chaos: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "injecting faults: %s (seed %d)\n", fp, *chaosSeed)
		wild.Net.SetFaults(netsim.NewFaultPlan(*chaosSeed, fp))
	}
	var tc *resolver.TransportConfig
	if *retries > 0 || *retryBudget > 0 {
		tc = &resolver.TransportConfig{
			Retries:     *retries,
			RetryBudget: *retryBudget,
			Backoff:     50 * time.Millisecond,
		}
	}

	if *profile == "compare" {
		compareProfiles(wild, *workers, tc)
		return
	}
	prof, ok := profileByName(*profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "edescan: unknown profile %q\n", *profile)
		os.Exit(2)
	}

	if *shards > 0 {
		runCampaign(wild, campaignRun{
			shards: *shards, shard: *shard, workers: *workers,
			profile: prof, transport: tc,
			checkpointDir: *checkpointDir, checkpointInterval: *checkpointInterval,
			resume: *resume, maxQPS: *maxQPS, authorityQPS: *authorityQPS,
			progress: *progress,
		})
		return
	}
	fmt.Fprintf(os.Stderr, "scanning %d domains with %d workers (%s profile) ...\n", len(pop.Domains), *workers, prof.Name)

	// The scan streams: every finished result folds into the mergeable
	// aggregates as it completes. Without -agg-only the per-domain results
	// are additionally materialized (the historical behaviour, useful with
	// -memprofile); with it the scan runs in O(workers) live results.
	r := resolver.New(wild.Net, wild.Roots, wild.Anchor, prof)
	r.Now = wild.Now
	r.Transport = tc
	scanner := scan.NewScanner(r)
	if *workers > 0 {
		scanner.Workers = *workers
	}
	ctx := context.Background()
	if warm := wild.WarmupDomains(); len(warm) > 0 {
		scanner.Scan(ctx, warm)
		wild.AdvanceClock(2 * time.Hour)
	}

	var (
		mu        sync.Mutex
		agg       = scan.NewAggregate()
		tldAgg    = scan.NewTLDAggregate(pop)
		trancoAgg = scan.NewTrancoAggregate(pop)
		results   []scan.Result
		done      atomic.Int64
	)
	// The telemetry registry is the single snapshot source for progress: the
	// resolver, the simulated network, and the scan's done counter register
	// their views once, and the -progress loop reads the same series a
	// /metrics scrape of edeserver would.
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg)
	wild.Net.RegisterMetrics(reg)
	reg.GaugeFunc("edelab_scan_domains_done",
		"Domains finished in the current scan.",
		func() float64 { return float64(done.Load()) })
	regValue := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}
	qBase := regValue("edelab_resolver_queries_total")
	rBase := regValue("edelab_resolver_resolutions_total")
	vBase := regValue("edelab_dnssec_verifies_total")
	stopProgress := make(chan struct{})
	if *progress > 0 {
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			var lastDone int64
			lastT := time.Now()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					d := int64(regValue("edelab_scan_domains_done"))
					queries := regValue("edelab_resolver_queries_total") - qBase
					resolutions := regValue("edelab_resolver_resolutions_total") - rBase
					rate := float64(d-lastDone) / time.Since(lastT).Seconds()
					lastDone, lastT = d, time.Now()
					verifies := regValue("edelab_dnssec_verifies_total") - vBase
					qpr, vpr := 0.0, 0.0
					if resolutions > 0 {
						qpr, vpr = queries/resolutions, verifies/resolutions
					}
					mu.Lock()
					top := topCodes(agg, 4)
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "progress: %d/%d domains (%.0f/s), ETA %s, %.2f queries/resolution, %.2f verifies/resolution, EDE %s\n",
						d, len(pop.Domains), rate, etaString(uint64(len(pop.Domains))-uint64(d), rate), qpr, vpr, top)
				}
			}
		}()
	}

	start := time.Now()
	n := scanner.ScanStream(ctx, pop.Names(), func(res scan.Result) {
		mu.Lock()
		agg.Add(res)
		tldAgg.Add(res)
		trancoAgg.Add(res)
		if !*aggOnly {
			results = append(results, res)
		}
		mu.Unlock()
		done.Add(1)
	})
	elapsed := time.Since(start)
	close(stopProgress)
	_ = results // retained for heap profiles of the non-streaming shape

	switch *figure {
	case 1:
		rows := tldAgg.Rows()
		g, cc := scan.Figure1(rows)
		if *csv {
			fmt.Print(report.Figure1CSV(g, cc))
			return
		}
		fmt.Print(report.CDFPlot(
			"Figure 1: ratio of domains that trigger EDE codes across gTLDs and ccTLDs",
			"ratio of domains (%)", 64, 16,
			report.CDFSeries{Label: "gTLDs", Marker: 'g', Xs: g},
			report.CDFSeries{Label: "ccTLDs", Marker: 'c', Xs: cc},
		))
		fmt.Printf("zero-misconfiguration TLDs: gTLD %.0f%%, ccTLD %.0f%% (paper: 38%% / 4%%)\n",
			100*scan.ZeroRatioShare(g), 100*scan.ZeroRatioShare(cc))
		fmt.Printf("fully-misconfigured TLDs: %d (paper: 11 gTLDs + 2 ccTLDs)\n",
			scan.FullRatioCount(g)+scan.FullRatioCount(cc))
		return
	case 2:
		stats := trancoAgg.Stats()
		if *csv {
			fmt.Print(report.Figure2CSV(stats))
			return
		}
		xs := make([]float64, len(stats.Ranks))
		for i, r := range stats.Ranks {
			xs[i] = float64(r)
		}
		fmt.Print(report.CDFPlot(
			"Figure 2: distribution of EDE-triggering domains across the Tranco-style list",
			fmt.Sprintf("rank (list size %d ≈ scaled 1M)", stats.ListSize), 64, 16,
			report.CDFSeries{Label: "EDE domains", Marker: '*', Xs: xs},
		))
		fmt.Printf("Tranco overlap: %d of %d ranked domains trigger EDEs (paper: 22.1k of 1M)\n",
			stats.Overlap, stats.ListSize)
		fmt.Printf("NOERROR among them: %d (paper: 12.2k)\n", stats.NoError)
		return
	}

	if *fixcurve {
		conc := scan.NSFromPopulation(pop)
		steps := []int{1, 2, 3, 6, 10, 20, 50, 100, len(conc.Counts)}
		fmt.Print(report.FixCurve(conc, steps))
		return
	}

	fmt.Print(report.Section42Table(agg))

	if *whatifFix > 0 {
		fmt.Printf("\nwhat-if: repairing the %d busiest broken nameservers and re-scanning ...\n", *whatifFix)
		repaired := wild.RepairTopNameservers(*whatifFix)
		r2 := resolver.New(wild.Net, wild.Roots, wild.Anchor, prof)
		r2.Now = wild.Now
		s2 := scan.NewScanner(r2)
		after := scan.NewAggregate()
		s2.ScanStream(context.Background(), pop.Names(), func(res scan.Result) { after.Add(res) })
		fixed := agg.CodeCounts[22] - after.CodeCounts[22]
		fmt.Printf("repaired %d nameservers: EDE-22 domains %d -> %d (%.1f%% of stranded domains recovered)\n",
			repaired, agg.CodeCounts[22], after.CodeCounts[22],
			100*float64(fixed)/float64(agg.CodeCounts[22]))
	}
	fmt.Println()
	fmt.Printf("scan: %d resolver queries in %v (%.0f resolutions/s, %.0f queries/s, %.2f queries/resolution)\n",
		scanner.QueryCount, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds(), float64(scanner.QueryCount)/elapsed.Seconds(),
		scanner.QueriesPerResolution)
	st := wild.Net.Stats()
	fmt.Printf("network: %d queries (%d answered, %d unroutable, %d unreachable)\n",
		st.Queries, st.Answered, st.Unroutable, st.Unreachable)
}

// campaignRun carries the campaign-mode flag values.
type campaignRun struct {
	shards, shard, workers int
	profile                *resolver.Profile
	transport              *resolver.TransportConfig
	checkpointDir          string
	checkpointInterval     time.Duration
	resume                 bool
	maxQPS, authorityQPS   float64
	progress               time.Duration
}

// runCampaign executes one shard of a sharded, checkpointed, rate-limited
// campaign and prints its §4.2 table. The persisted snapshot merges with the
// other shards' via edereport -merge.
func runCampaign(wild *population.Wild, cr campaignRun) {
	cfg := campaign.Config{
		Shards:  cr.shards,
		Shard:   cr.shard,
		Workers: cr.workers,
		Profile: cr.profile, Transport: cr.transport,
		CheckpointInterval: cr.checkpointInterval,
		Resume:             cr.resume,
		AuthorityQPS:       cr.authorityQPS,
		MaxQPS:             cr.maxQPS,
		Governor:           &campaign.GovernorConfig{},
		Registry:           telemetry.NewRegistry(),
	}
	if cr.checkpointDir != "" {
		if err := os.MkdirAll(cr.checkpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "edescan: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
		cfg.CheckpointPath = campaign.CheckpointFile(cr.checkpointDir, cr.shard, cr.shards)
	}
	runner, err := campaign.New(cfg, wild)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edescan: %v\n", err)
		os.Exit(2)
	}
	lo, hi := campaign.ShardRange(len(wild.Pop.Domains), cr.shard, cr.shards)
	fmt.Fprintf(os.Stderr, "campaign: shard %d/%d scanning domains [%d,%d) with %d workers (%s profile)\n",
		cr.shard, cr.shards, lo, hi, cfg.Workers, cr.profile.Name)
	if cr.resume && cfg.CheckpointPath != "" {
		// Peek at the checkpoint header for the operator's benefit; Run
		// re-reads and fully validates it (and reports a missing or
		// mismatched file properly), so decode errors are not fatal here.
		if raw, err := os.ReadFile(cfg.CheckpointPath); err == nil {
			if prev, err := scan.DecodeSnapshot(raw); err == nil {
				fmt.Fprintf(os.Stderr, "campaign: resuming from checkpoint at position %d/%d (%d queries persisted)\n",
					prev.Position, hi-lo, prev.Queries)
			}
		}
	}

	stopProgress := make(chan struct{})
	if cr.progress > 0 {
		go func() {
			tick := time.NewTicker(cr.progress)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					done, total, rate := runner.Progress()
					pct := 0.0
					if total > 0 {
						pct = 100 * float64(done) / float64(total)
					}
					conc := cfg.Workers
					if g := runner.Governor(); g != nil {
						conc = g.Concurrency()
					}
					fmt.Fprintf(os.Stderr, "progress: shard %d/%d: %d/%d domains (%.1f%%, %.0f/s), ETA %s, concurrency %d\n",
						cr.shard, cr.shards, done, total, pct, rate, etaString(total-done, rate), conc)
				}
			}
		}()
	}

	start := time.Now()
	snap, err := runner.Run(context.Background())
	elapsed := time.Since(start)
	close(stopProgress)
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) && cfg.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "edescan: campaign: %v\nresume with: edescan -shards %d -shard %d -checkpoint-dir %s -resume\n",
				err, cr.shards, cr.shard, cr.checkpointDir)
		} else {
			fmt.Fprintf(os.Stderr, "edescan: campaign: %v\n", err)
		}
		os.Exit(1)
	}

	fmt.Print(report.Section42Table(snap.Agg))
	fmt.Println()
	done, total, _ := runner.Progress()
	fmt.Printf("campaign: shard %d/%d complete: %d/%d domains, %d upstream queries in %v (%.0f domains/s)\n",
		cr.shard, cr.shards, done, total, snap.Queries, elapsed.Round(time.Millisecond),
		float64(done)/elapsed.Seconds())
	if l := runner.Limiter(); l != nil {
		fmt.Printf("campaign: limiter admitted %d queries, %d waits\n", l.Admitted(), l.Denied())
	}
	if cfg.CheckpointPath != "" {
		fmt.Printf("campaign: snapshot written to %s (merge with: edereport -merge %s/shard-*.snap)\n",
			cfg.CheckpointPath, cr.checkpointDir)
	}
}

// etaString formats the time left at the current rate for progress lines.
func etaString(remaining uint64, rate float64) string {
	if rate <= 0 {
		return "n/a"
	}
	return time.Duration(float64(remaining) / rate * float64(time.Second)).Round(time.Second).String()
}

// topCodes formats the k most frequent EDE codes as "code:count ..." for the
// progress line.
func topCodes(agg *scan.Aggregate, k int) string {
	codes := agg.CodesByCount()
	if len(codes) == 0 {
		return "(none)"
	}
	if len(codes) > k {
		codes = codes[:k]
	}
	var b strings.Builder
	for i, c := range codes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", c, agg.CodeCounts[c])
	}
	return b.String()
}

// profileByName maps CLI names to vendor profiles.
func profileByName(name string) (*resolver.Profile, bool) {
	switch name {
	case "cloudflare":
		return resolver.ProfileCloudflare(), true
	case "bind":
		return resolver.ProfileBIND9(), true
	case "unbound":
		return resolver.ProfileUnbound(), true
	case "powerdns":
		return resolver.ProfilePowerDNS(), true
	case "knot":
		return resolver.ProfileKnot(), true
	case "quad9":
		return resolver.ProfileQuad9(), true
	case "opendns":
		return resolver.ProfileOpenDNS(), true
	}
	return nil, false
}

// compareProfiles runs the multi-vendor extension: the same population
// scanned under every profile (the paper scanned Cloudflare only).
func compareProfiles(wild *population.Wild, workers int, tc *resolver.TransportConfig) {
	byProfile := make(map[string][]scan.Result)
	for _, p := range resolver.AllProfiles() {
		fmt.Fprintf(os.Stderr, "scanning under %s ...\n", p.Name)
		results, _ := scan.WildScan(context.Background(), wild, p, workers, tc)
		byProfile[p.Name] = results
	}
	rows := scan.CompareProfiles(byProfile)
	fmt.Printf("%-18s %14s %14s %12s\n", "profile", "EDE domains", "distinct codes", "SERVFAILs")
	for _, r := range rows {
		fmt.Printf("%-18s %14d %14d %12d\n", r.Profile, r.DomainsWithEDE, r.DistinctCodes, r.Servfails)
	}
	fmt.Println("\ndetection is shared (similar SERVFAIL counts); EDE visibility is not —")
	fmt.Println("the paper chose Cloudflare for the wild scan because it reports the most.")
}
