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
// Every run is one shard of a campaign (internal/campaign); the default is
// shard 0 of 1, the whole population. With -shards N each process scans one
// slice, checkpointed and rate-limited, and the shard snapshots merge with
// edereport -merge:
//
//	edescan -shards 4 -shard 0 -checkpoint-dir ckpt -progress 2s
//	edescan -shards 4 -shard 0 -checkpoint-dir ckpt -resume   # after a kill
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value is
// the exit status (2 for a command line that cannot be honoured as written).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edescan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	domains := fs.Int("domains", population.PaperTotal/1000, "population size (paper: 303M; default 1:1,000)")
	seed := fs.Uint64("seed", 20230515, "population seed")
	workers := fs.Int("workers", 64, "scanner concurrency")
	figure := fs.Int("figure", 0, "print only figure 1 or 2")
	csv := fs.Bool("csv", false, "with -figure, emit the data as CSV instead of an ASCII plot")
	fixcurve := fs.Bool("fixcurve", false, "print the broken-nameserver fix curve")
	profile := fs.String("profile", "cloudflare", "vendor profile (cloudflare, bind, unbound, powerdns, knot, quad9, opendns) or 'compare' for all")
	whatifFix := fs.Int("whatif-fix", 0, "after the scan, repair the k busiest broken nameservers and re-scan (the paper's 'fixing 20k repairs >81%' counterfactual)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the scan) to this file")
	chaos := fs.String("chaos", "", "inject faults into the simulated network, e.g. 'loss=0.2,lat=100ms' (see internal/netsim.ParseFaultProfile)")
	chaosSeed := fs.Uint64("chaos-seed", 20230515, "seed for the fault plan; same seed + same flags replays the identical scan")
	retries := fs.Int("retries", 0, "resolver attempts per authoritative server (0 = single-shot legacy behaviour)")
	retryBudget := fs.Int("retry-budget", 0, "total upstream queries per resolution step across all servers (0 = unlimited)")
	progress := fs.Duration("progress", 0, "print live scan progress (domains/sec, ETA, queries/domain, concurrency) to stderr at this interval, e.g. -progress 2s")
	shards := fs.Int("shards", 1, "total shard count; each process scans one contiguous slice of the population")
	shard := fs.Int("shard", 0, "this process's 0-based shard index")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for the shard's checkpoint snapshot (merge with edereport -merge)")
	checkpointInterval := fs.Duration("checkpoint-interval", 5*time.Second, "wall time between periodic checkpoint writes")
	resume := fs.Bool("resume", false, "continue from the shard's checkpoint in -checkpoint-dir instead of starting over")
	maxQPS := fs.Float64("max-qps", 0, "global upstream queries/sec cap for this shard (0 = unlimited); a capped scan also runs the concurrency governor")
	authorityQPS := fs.Float64("authority-qps", 0, "upstream queries/sec cap per authoritative address (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "edescan: "+format+"\n", a...)
		return code
	}

	compare := *profile == "compare"
	prof, ok := resolver.ProfileByName(*profile)
	// The reports that replace the §4.2 table; each needs the whole population.
	reports := 0
	for _, set := range []bool{*figure != 0, *fixcurve, *whatifFix > 0, compare} {
		if set {
			reports++
		}
	}
	var fp netsim.FaultProfile
	var err error
	if *chaos != "" {
		fp, err = netsim.ParseFaultProfile(*chaos)
	}
	switch {
	case !ok && !compare:
		return exit(2, "unknown profile %q", *profile)
	case err != nil:
		return exit(2, "-chaos: %v", err)
	case *figure < 0 || *figure > 2:
		return exit(2, "-figure %d: the paper's §4 has figures 1 and 2", *figure)
	case *csv && *figure == 0:
		return exit(2, "-csv needs -figure 1 or 2")
	case *shards < 1 || *shard < 0 || *shard >= *shards:
		return exit(2, "shard %d out of range [0,%d)", *shard, *shards)
	case reports > 1:
		return exit(2, "-figure, -fixcurve, -whatif-fix and -profile compare each print their own report; pick one")
	case reports > 0 && *shards > 1:
		return exit(2, "-figure, -fixcurve, -whatif-fix and -profile compare describe the whole population, not shard %d of %d: scan every shard and merge the snapshots with edereport -merge", *shard, *shards)
	case *resume && *checkpointDir == "":
		return exit(2, "-resume needs the -checkpoint-dir the interrupted run wrote to")
	case compare && *checkpointDir != "":
		return exit(2, "-profile compare reports each scan as several profiles; the one checkpoint in -checkpoint-dir holds one profile's snapshot")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return exit(1, "cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exit(1, "cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "edescan: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "edescan: memprofile: %v\n", err)
			}
		}()
	}

	fmt.Fprintf(stderr, "generating population: %d domains across 1,475 TLDs (seed %d) ...\n", *domains, *seed)
	pop := population.Generate(population.Config{TotalDomains: *domains, Seed: *seed})
	wild, err := population.Materialize(pop)
	if err != nil {
		return exit(1, "materialize: %v", err)
	}
	if *chaos != "" {
		fmt.Fprintf(stderr, "injecting faults: %s (seed %d)\n", fp, *chaosSeed)
		wild.Net.SetFaults(netsim.NewFaultPlan(*chaosSeed, fp))
	}

	cfg := campaign.Config{
		Shards: *shards, Shard: *shard, Workers: *workers, Profile: prof,
		CheckpointInterval: *checkpointInterval, Resume: *resume,
		AuthorityQPS: *authorityQPS, MaxQPS: *maxQPS,
	}
	if *maxQPS > 0 || *authorityQPS > 0 {
		// The governor backs a rate-capped scan off upstreams that time out.
		// An uncapped scan keeps its workers: under -chaos the governor reads
		// the injected loss as pressure, halves down to one resolution at a
		// time and never recovers, serialising every retry back-off.
		cfg.Governor = &campaign.GovernorConfig{}
	}
	if *retries > 0 || *retryBudget > 0 {
		cfg.Transport = &resolver.TransportConfig{
			Retries:     *retries,
			RetryBudget: *retryBudget,
			Backoff:     50 * time.Millisecond,
		}
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return exit(1, "-checkpoint-dir: %v", err)
		}
		cfg.CheckpointPath = campaign.CheckpointFile(*checkpointDir, *shard, *shards)
	}

	if compare {
		rows, err := compareRows(wild, cfg, *progress, stderr)
		if err != nil {
			return exit(1, "%v", err)
		}
		fmt.Fprintf(stdout, "%-18s %14s %14s %12s\n", "profile", "EDE domains", "distinct codes", "SERVFAILs")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-18s %14d %14d %12d\n", r.Profile, r.DomainsWithEDE, r.DistinctCodes, r.Servfails)
		}
		fmt.Fprintln(stdout, "\ndetection is shared (similar SERVFAIL counts); EDE visibility is not —")
		fmt.Fprintln(stdout, "the paper chose Cloudflare for the wild scan because it reports the most.")
		return 0
	}

	start := time.Now()
	snaps, runner, err := scanShard(wild, cfg, nil, *progress, stderr)
	elapsed := time.Since(start)
	if err != nil {
		return exit(1, "%v", err)
	}
	snap := snaps[0]

	switch {
	case *figure == 1:
		g, cc := scan.Figure1(snap.TLD.Rows())
		if *csv {
			fmt.Fprint(stdout, report.Figure1CSV(g, cc))
			return 0
		}
		fmt.Fprint(stdout, report.CDFPlot(
			"Figure 1: ratio of domains that trigger EDE codes across gTLDs and ccTLDs",
			"ratio of domains (%)", 64, 16,
			report.CDFSeries{Label: "gTLDs", Marker: 'g', Xs: g},
			report.CDFSeries{Label: "ccTLDs", Marker: 'c', Xs: cc},
		))
		fmt.Fprintf(stdout, "zero-misconfiguration TLDs: gTLD %.0f%%, ccTLD %.0f%% (paper: 38%% / 4%%)\n",
			100*scan.ZeroRatioShare(g), 100*scan.ZeroRatioShare(cc))
		fmt.Fprintf(stdout, "fully-misconfigured TLDs: %d (paper: 11 gTLDs + 2 ccTLDs)\n",
			scan.FullRatioCount(g)+scan.FullRatioCount(cc))
		return 0
	case *figure == 2:
		stats := snap.Tranco.Stats()
		if *csv {
			fmt.Fprint(stdout, report.Figure2CSV(stats))
			return 0
		}
		xs := make([]float64, len(stats.Ranks))
		for i, r := range stats.Ranks {
			xs[i] = float64(r)
		}
		fmt.Fprint(stdout, report.CDFPlot(
			"Figure 2: distribution of EDE-triggering domains across the Tranco-style list",
			fmt.Sprintf("rank (list size %d ≈ scaled 1M)", stats.ListSize), 64, 16,
			report.CDFSeries{Label: "EDE domains", Marker: '*', Xs: xs},
		))
		fmt.Fprintf(stdout, "Tranco overlap: %d of %d ranked domains trigger EDEs (paper: 22.1k of 1M)\n",
			stats.Overlap, stats.ListSize)
		fmt.Fprintf(stdout, "NOERROR among them: %d (paper: 12.2k)\n", stats.NoError)
		return 0
	case *fixcurve:
		conc := scan.NSFromPopulation(pop)
		steps := []int{1, 2, 3, 6, 10, 20, 50, 100, len(conc.Counts)}
		fmt.Fprint(stdout, report.FixCurve(conc, steps))
		return 0
	}

	fmt.Fprint(stdout, report.Section42Table(snap.Agg))
	fmt.Fprintln(stdout)
	res, st := runner.Scanner.Resolver, wild.Net.Stats()
	fmt.Fprintf(stdout, "scan: shard %d/%d: %d domains, %d upstream queries in %v (%.0f domains/s, %.2f queries/resolution, %.2f verifies/resolution)\n",
		*shard, *shards, snap.Position, snap.Queries, elapsed.Round(time.Millisecond),
		float64(runner.Scanner.Resolutions)/elapsed.Seconds(), float64(snap.Queries)/float64(snap.Resolutions),
		float64(res.Cache.VerifyStats().Verifies)/float64(res.ResolutionCount.Load()))
	fmt.Fprintf(stdout, "network: %d queries (%d answered, %d unroutable, %d unreachable)\n",
		st.Queries, st.Answered, st.Unroutable, st.Unreachable)
	if l := runner.Limiter(); l != nil {
		fmt.Fprintf(stdout, "limiter: admitted %d queries, %d waits\n", l.Admitted(), l.Denied())
	}
	if *checkpointDir != "" {
		fmt.Fprintf(stdout, "snapshot written to %s (merge with: edereport -merge %s/shard-*.snap)\n",
			cfg.CheckpointPath, *checkpointDir)
	}

	if *whatifFix > 0 {
		fmt.Fprintf(stdout, "\nwhat-if: repairing the %d busiest broken nameservers and re-scanning ...\n", *whatifFix)
		repaired := wild.RepairTopNameservers(*whatifFix)
		// A fresh pass over the repaired network; it must not overwrite the
		// measured scan's checkpoint.
		cfg.CheckpointPath, cfg.Resume = "", false
		after, _, err := scanShard(wild, cfg, nil, *progress, stderr)
		if err != nil {
			return exit(1, "%v", err)
		}
		before, now := snap.Agg.CodeCounts[22], after[0].Agg.CodeCounts[22]
		fmt.Fprintf(stdout, "repaired %d nameservers: EDE-22 domains %d -> %d (%.1f%% of stranded domains recovered)\n",
			repaired, before, now, 100*float64(before-now)/float64(before))
	}
	return 0
}

// compareRows is -profile compare: wild reported by every profile (the paper
// scanned Cloudflare only), scanned once per behaviour class.
func compareRows(wild *population.Wild, cfg campaign.Config, progress time.Duration, stderr io.Writer) ([]scan.ProfileComparison, error) {
	byProfile := make(map[string]*scan.Aggregate)
	for _, class := range resolver.ByBehaviour(resolver.AllProfiles()) {
		cfg.Profile = class[0]
		snaps, _, err := scanShard(wild, cfg, class, progress, stderr)
		if err != nil {
			return nil, err
		}
		for i, p := range class {
			byProfile[p.Name] = snaps[i].Agg
		}
	}
	return scan.CompareProfiles(byProfile), nil
}

// scanShard is every scan edescan makes — the measured one, each -profile
// compare pass, the -whatif-fix re-scan: one campaign shard over wild under
// cfg, with a progress line on stderr every progress interval, reported as
// each profile in views (campaign.Runner.RunViews; nil is cfg.Profile alone).
// The runner is returned for its post-run counters.
func scanShard(wild *population.Wild, cfg campaign.Config, views []*resolver.Profile, progress time.Duration, stderr io.Writer) ([]*scan.Snapshot, *campaign.Runner, error) {
	runner, err := campaign.New(cfg, wild)
	if err != nil {
		return nil, nil, err
	}
	if views == nil {
		views = []*resolver.Profile{cfg.Profile}
	}
	// What this pass adds to the network's query count, over the domains it
	// scans itself (not those its checkpoint folded), is the live
	// amplification figure.
	queries0, resumed := wild.Net.Stats().Queries, uint64(0)
	lo, hi := campaign.ShardRange(len(wild.Pop.Domains), cfg.Shard, cfg.Shards)
	names := make([]string, len(views))
	for i, p := range views {
		names[i] = p.Name
	}
	label := strings.Join(names, ", ") + " profile"
	if len(views) > 1 {
		label += "s"
	}
	fmt.Fprintf(stderr, "scanning domains [%d,%d) (shard %d/%d) with %d workers (%s) ...\n",
		lo, hi, cfg.Shard, cfg.Shards, cfg.Workers, label)
	if cfg.Resume {
		// Peek at the checkpoint header for the operator's benefit; Run
		// re-reads and fully validates it (and reports a missing or
		// mismatched file properly), so decode errors are not fatal here.
		if raw, err := os.ReadFile(cfg.CheckpointPath); err == nil {
			if prev, err := scan.DecodeSnapshot(raw); err == nil {
				resumed = prev.FoldedCount()
				fmt.Fprintf(stderr, "resuming from checkpoint at position %d/%d, %d domains done past it (%d queries persisted)\n",
					prev.Position, hi-lo, resumed-prev.Position, prev.Queries)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if progress > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(progress)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				done, total, rate := runner.Progress()
				eta, amplification := "n/a", "n/a"
				if rate > 0 {
					eta = time.Duration(float64(total-done) / rate * float64(time.Second)).Round(time.Second).String()
				}
				if done > resumed {
					amplification = fmt.Sprintf("%.2f", float64(wild.Net.Stats().Queries-queries0)/float64(done-resumed))
				}
				concurrency := cfg.Workers
				if g := runner.Governor(); g != nil {
					concurrency = g.Concurrency()
				}
				fmt.Fprintf(stderr, "progress: shard %d/%d: %d/%d domains (%.1f%%, %.0f/s), ETA %s, %s queries/domain, concurrency %d\n",
					cfg.Shard, cfg.Shards, done, total, 100*float64(done)/float64(max(total, 1)), rate, eta, amplification, concurrency)
			}
		}()
	}
	snaps, err := runner.RunViews(context.Background(), views)
	close(stop)
	wg.Wait()
	return snaps, runner, err
}
