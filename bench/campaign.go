package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// e4Counts are EXPERIMENTS.md E4's measured per-code counts: what the default
// seed's 303,000-domain scan must reproduce exactly.
var e4Counts = map[uint16]int{22: 13966, 23: 11647, 10: 2747, 9: 297, 6: 82}

// expectedCodes derives the five large per-code counts from the generated
// population's class sizes, so any seed and size has a reference: the lame
// classes answer 22 (and 23 unless silent), a partially broken nameserver
// set answers 23 alone, every third stale domain's dead server refuses
// (23 beside 22), and the stand-by KSK, DS-mismatch and bogus-denial classes
// answer 10, 9 and 6.
func expectedCodes(pop *population.Population) map[uint16]int {
	n := make(map[population.Class]int)
	for _, d := range pop.Domains {
		n[d.Class]++
	}
	lame := n[population.ClassLameRefused] + n[population.ClassLameServfail]
	return map[uint16]int{
		22: n[population.ClassLameTimeout] + lame + n[population.ClassStale],
		23: lame + n[population.ClassPartialUpstream] + n[population.ClassStale]/3,
		10: n[population.ClassStandby],
		9:  n[population.ClassDNSKEYMismatch],
		6:  n[population.ClassBogusTLD],
	}
}

// campaignPass is one campaign.Run over a fresh wild network.
type campaignPass struct {
	wild     *world
	runner   *campaign.Runner
	reg      *telemetry.Registry
	snap     *scan.Snapshot
	tracer   *tracer
	ckptDir  string
	warmupS  float64
	measureS float64 // the measurement pass alone
	cpuUS    float64 // process CPU over the whole Run
	mem      memDelta
	sampler  *sampler
	govMin   int
}

// runPass runs the campaign the way edescan -shards 1 does: one shard, 32
// workers, a checkpoint every 5 s, no rate caps, governor on.
func runPass(p params, wild *world, traced bool) (*campaignPass, error) {
	cp := &campaignPass{wild: wild, reg: telemetry.NewRegistry(), govMin: p.campaignWorkers}
	if traced {
		cp.tracer = newTracer()
		if n := wrapEndpoints(cp.tracer, wild.Net); n < len(wild.Pop.TLDs)+1 {
			return nil, fmt.Errorf("endpoint seam wrapped %d endpoints, want at least %d", n, len(wild.Pop.TLDs)+1)
		}
		cp.tracer.on.Store(true)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	var err error
	if cp.ckptDir, err = os.MkdirTemp("out", "checkpoint-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			cp.cleanup()
		}
	}()
	cp.runner, err = campaign.New(campaign.Config{
		Shards: 1, Workers: p.campaignWorkers,
		CheckpointPath:     campaign.CheckpointFile(cp.ckptDir, 0, 1),
		CheckpointInterval: 5 * time.Second,
		Governor:           &campaign.GovernorConfig{},
		Registry:           cp.reg,
	}, wild.Wild)
	if err != nil {
		return nil, err
	}

	cp.sampler = startSampler(func() { cp.govMin = min(cp.govMin, cp.runner.Governor().Concurrency()) })
	mem, cpu, start := readMem(), cpuNS(), time.Now()
	cp.snap, err = cp.runner.Run(context.Background())
	// Progress reports done ÷ (now − measurement start), so right after
	// Run returns done ÷ rate is the measurement pass's length.
	done, _, rate := cp.runner.Progress()
	total := time.Since(start).Seconds()
	cp.cpuUS, cp.mem = float64(cpuNS()-cpu)/1e3, memSince(mem)
	cp.sampler.done()
	if err != nil {
		return nil, err
	}
	if rate <= 0 {
		err = fmt.Errorf("campaign reported no progress rate")
		return nil, err
	}
	cp.measureS = float64(done) / rate
	cp.warmupS = max(total-cp.measureS, 0)
	return cp, nil
}

func (cp *campaignPass) cleanup() { os.RemoveAll(cp.ckptDir) }

// check compares the pass's aggregate with what the population implies.
func (cp *campaignPass) check(p params, rep *report) {
	n := len(cp.wild.Pop.Domains)
	rep.res.Attempted += uint64(n)
	skipped := n - cp.snap.Agg.Total
	if skipped != 0 || cp.snap.Position != uint64(n) || cp.snap.Resolutions != uint64(n) {
		rep.res.Failed += uint64(max(skipped, 1))
		rep.fail("campaign folded %d of %d domains (position %d, resolutions %d)", cp.snap.Agg.Total, n, cp.snap.Position, cp.snap.Resolutions)
	}
	want := expectedCodes(cp.wild.Pop)
	if p.seed == 20230515 && n == 303000 {
		for code, c := range e4Counts {
			if want[code] != c {
				rep.fail("class-derived count for EDE %d is %d, EXPERIMENTS.md E4 says %d", code, want[code], c)
			}
		}
	}
	codes := make([]int, 0, len(want))
	for code := range want {
		codes = append(codes, int(code))
	}
	sort.Ints(codes)
	for _, code := range codes {
		got := cp.snap.Agg.CodeCounts[uint16(code)]
		rep.info(fmt.Sprintf("ede_%d_domains", code), got)
		if got != want[uint16(code)] {
			rep.res.Failed += uint64(max(got-want[uint16(code)], want[uint16(code)]-got))
			rep.fail("EDE %d on %d domains, the population implies %d", code, got, want[uint16(code)])
		}
	}
}

// runCampaign is the campaign_scan workload.
func runCampaign(p params, w workload, rep *report) error {
	var wild *world
	var total, gen, mat []float64
	for i := 0; i < p.setups; i++ {
		var err error
		if wild, err = newWorld(p.seed, p.campaignDomains); err != nil {
			return err
		}
		gen, mat = append(gen, wild.generateS), append(mat, wild.materializeS)
		total = append(total, wild.generateS+wild.materializeS)
		if wild.rekeyed > 0 {
			rep.info("rekeyed", fmt.Sprintf("set-up %d drew its world %d more times: key-tag clash", i+1, wild.rekeyed))
		}
	}
	rep.info("domains", len(wild.Pop.Domains))
	rep.info("inputs_sha256", namesSHA256(wild.Pop))
	debug.FreeOSMemory() // the earlier set-ups' pages are not this scan's

	if p.trace {
		return tracedCampaign(p, wild, rep, median(gen), median(mat))
	}
	cp, err := runPass(p, wild, false)
	if err != nil {
		return err
	}
	defer cp.cleanup()
	cp.check(p, rep)
	n := float64(len(wild.Pop.Domains))
	// The warm-up pass runs inside campaign.Run; it belongs to set-up.
	rep.endToEnd(median(total)+cp.warmupS, n/cp.measureS, cp.cpuUS/n, cp.sampler)
	return nil
}

// tracedCampaign runs the pass twice on twin networks — decorators off, then
// on — and then times the scan layer's public functions directly.
func tracedCampaign(p params, wild *world, rep *report, genS, matS float64) error {
	twin, err := newWorld(p.seed, p.campaignDomains)
	if err != nil {
		return err
	}
	plain, err := runPass(p, twin, false)
	if err != nil {
		return err
	}
	plain.cleanup()
	cp, err := runPass(p, wild, true)
	if err != nil {
		return err
	}
	defer cp.cleanup()
	cp.tracer.on.Store(false)
	cp.check(p, rep)

	l := layers{"population.generate_s": genS, "population.materialize_s": matS}
	n := float64(len(wild.Pop.Domains))
	spans := cp.tracer.spans()
	var endpointNS int64
	for _, s := range spans {
		endpointNS += s.dur()
	}
	if len(spans) > 0 {
		l["netsim.endpoint_ns"] = float64(endpointNS) / float64(len(spans))
	}
	// The only seam inside campaign.Run is the endpoint handler, and spans
	// are wall time on oversubscribed cores, so the share is of the workers'
	// wall time: how much of a worker's pass is spent inside authorities.
	l["trace.layer_sum_share"] = float64(endpointNS) / 1e9 / (float64(p.campaignWorkers) * cp.measureS)
	l["trace.overhead_share"] = cp.measureS/plain.measureS - 1
	path, err := writeTrace("out", "campaign_scan", spans)
	if err != nil {
		return err
	}
	rep.info("trace_file", path)
	rep.info("trace_spans", len(spans))

	res := cp.runner.Scanner.Resolver
	st := wild.Net.Stats()
	l["resolver.queries_per_resolution"] = cp.runner.Scanner.QueriesPerResolution
	l["resolver.timeouts"] = float64(res.TransportStats().Timeouts)
	l["resolver.answer_cache_len"] = float64(res.Cache.Len())
	l["resolver.delegation_len"] = float64(res.Cache.DelegationLen())
	l["netsim.queries"], l["netsim.lost"] = float64(st.Queries), float64(st.Lost)
	l["scan.skipped"] = n - float64(cp.snap.Agg.Total)
	l["campaign.warmup_s"] = cp.warmupS
	shard := telemetry.L("shard", "0")
	l["campaign.checkpoints"], _ = cp.reg.Value("edelab_campaign_checkpoints_total", shard)
	l["campaign.tokens_denied"], _ = cp.reg.Value("edelab_campaign_tokens_denied_total", shard) // absent without rate caps
	l["campaign.governor_concurrency_min"] = float64(cp.govMin)
	l["proc.allocs_per_op"], l["proc.alloc_bytes_per_op"] = float64(cp.mem.mallocs)/n, float64(cp.mem.bytes)/n
	l["proc.gc_cycles"], l["proc.gc_pause_total_ms"] = float64(cp.mem.gcCycles), float64(cp.mem.gcPauseNS)/1e6
	l["proc.goroutines_peak"] = float64(cp.sampler.goroutinesPeak)

	if err := scanTimings(l, p, cp); err != nil {
		return err
	}
	queries, responses, err := referralSamples(wild.Wild, 256)
	if err != nil {
		return err
	}
	if err := codecTimings(l, queries, responses); err != nil {
		return err
	}
	if err := wildTimings(l, wild.Wild); err != nil {
		return err
	}
	if err := transportTimings(l); err != nil {
		return err
	}
	l.print(rep)
	return nil
}

// scanTimings calls the scan layer's public functions directly, on the
// network the traced pass just used: a streamed scan into a sink that only
// counts, the aggregate fold, and the snapshot encode and checkpoint write.
func scanTimings(l layers, p params, cp *campaignPass) error {
	ctx := context.Background()
	res := resolver.New(cp.wild.Net, cp.wild.Roots, cp.wild.Anchor, resolver.ProfileCloudflare())
	res.Now = cp.wild.Now
	res.AnswerCacheReadOnly = true
	sc := scan.NewScanner(res)
	sc.Workers = p.campaignWorkers
	names := make([]dnswire.Name, 0, 20000)
	for _, d := range cp.wild.Pop.Domains[:min(20000, len(cp.wild.Pop.Domains))] {
		names = append(names, d.Name)
	}
	folded := 0
	t := time.Now()
	sc.ScanStream(ctx, scan.SliceSource(names), func(scan.Result) { folded++ })
	l["scan.resolve_us_per_domain"] = float64(time.Since(t)) / 1e3 / float64(folded)

	results := sc.Scan(ctx, names[:min(2000, len(names))])
	agg := scan.NewAggregate()
	l["scan.aggregate_add_ns"] = perCall(200000, func(i int) { agg.Add(results[i%len(results)]) })

	var err error
	if l["scan.snapshot_encode_ms"], err = medianOf(5, func(int) error { cp.snap.Encode(); return nil }); err != nil {
		return err
	}
	l["scan.snapshot_encode_ms"] /= 1e6
	l["scan.snapshot_bytes"] = float64(len(cp.snap.Encode()))
	path := campaign.CheckpointFile(cp.ckptDir, 0, 1)
	if l["campaign.checkpoint_write_ms"], err = medianOf(5, func(int) error {
		if err := os.WriteFile(path+".tmp", cp.snap.Encode(), 0o644); err != nil {
			return err
		}
		return os.Rename(path+".tmp", path)
	}); err != nil {
		return fmt.Errorf("checkpoint write: %w", err)
	}
	l["campaign.checkpoint_write_ms"] /= 1e6
	return nil
}

// referralSamples packs n of the messages a scan moves most: the resolver's
// query for a domain and the TLD's referral answering it.
func referralSamples(w *population.Wild, n int) (queries, responses [][]byte, err error) {
	for i, d := range w.Pop.Domains[:min(n, len(w.Pop.Domains))] {
		q := dnswire.NewQuery(uint16(i), d.Name, dnswire.TypeA)
		resp, _, err := w.Net.Exchange(context.Background(), d.TLD.Addr, q)
		if err != nil {
			return nil, nil, fmt.Errorf("referral for %s: %w", d.Name, err)
		}
		qb, err := q.Pack()
		if err != nil {
			return nil, nil, err
		}
		rb, err := resp.Pack()
		if err != nil {
			return nil, nil, err
		}
		queries, responses = append(queries, qb), append(responses, rb)
	}
	return queries, responses, nil
}
