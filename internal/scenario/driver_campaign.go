package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// campaignDriver runs scenarios against a population slice: a synthetic
// wild-Internet population scanned sequentially through one resolver, with
// the AIMD governor observing the failure rate — collapse and recovery
// become assertable via the concurrency gauge.
type campaignDriver struct {
	*lab
	res  *resolver.Resolver
	gov  *campaign.Governor
	iter *population.NameIter

	observeEvery int
	sinceObserve int

	// cumA/cumF are the monotone cumulative feed the governor observes;
	// lastQueries/lastFails checkpoint the resolver counters so scan-driven
	// and pressure-driven observations can interleave without the cumulative
	// series ever going backwards.
	cumA, cumF          uint64
	lastQueries         uint64
	lastFails           uint64
	scanned, scanFailed uint64
}

func (d *campaignDriver) setup(l *lab) error {
	d.lab = l
	sc, reg := l.sc, l.reg
	pop := population.Generate(population.Config{
		TotalDomains: sc.Population.Total,
		Seed:         l.seed,
	})
	wild, err := population.Materialize(pop)
	if err != nil {
		return err
	}
	// The population has no symbolic endpoint names; only "all" fault rules
	// apply to campaign scenarios.
	l.useNetwork(wild.Net, nil)

	prof, err := l.profile()
	if err != nil {
		return err
	}
	d.res = resolver.New(wild.Net, wild.Roots, wild.Anchor, prof)
	d.res.Now = wild.Now
	d.res.Transport = l.transport()

	g := sc.Governor
	d.gov = campaign.NewGovernor(campaign.GovernorConfig{
		Min: g.Min, Max: g.Max,
		HighWater: g.High, LowWater: g.Low,
		Step: g.Step,
	})
	d.observeEvery = g.ObserveEvery
	if d.observeEvery <= 0 {
		d.observeEvery = 25
	}

	lo, hi := sc.Population.Start, sc.Population.End
	if hi <= 0 {
		hi = len(pop.Domains)
	}
	d.iter = pop.NamesRange(lo, hi)

	d.res.RegisterMetrics(reg)
	reg.GaugeFunc("edelab_campaign_governor_concurrency",
		"The AIMD governor's current concurrency capacity.",
		func() float64 { return float64(d.gov.Concurrency()) })
	reg.CounterFunc("edelab_scenario_scan_names_total",
		"Population names the scenario has scanned.",
		func() uint64 { return d.scanned })
	reg.CounterFunc("edelab_scenario_scan_failures_total",
		"Scanned names that resolved to SERVFAIL.",
		func() uint64 { return d.scanFailed })
	return nil
}

func (d *campaignDriver) act(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "scan":
		return d.scan(ctx, a.Args, obs)
	case "pressure":
		return d.pressure(a.Args)
	case "flush":
		d.res.Cache.Flush()
		return nil
	}
	return ErrUnknownAction
}

// observe advances the cumulative feed from the resolver's counters and
// lets the governor adjust capacity.
func (d *campaignDriver) observe() {
	q := d.res.QueryCount.Load()
	st := d.res.TransportStats()
	fails := st.Timeouts + st.UpstreamServfails
	d.cumA += q - d.lastQueries
	d.cumF += fails - d.lastFails
	d.lastQueries, d.lastFails = q, fails
	d.gov.Observe(d.cumA, d.cumF)
}

// scan resolves the next n population names sequentially, feeding the
// governor every observeEvery resolutions — the campaign loop's Observe
// cadence, minus the worker pool (sequential keeps reports byte-stable).
func (d *campaignDriver) scan(ctx context.Context, args []string, obs *observations) error {
	if len(args) != 1 {
		return fmt.Errorf("scan needs n=K")
	}
	n, err := countArg(args[0])
	if err != nil {
		return err
	}
	if d.iter.Len() < n {
		return fmt.Errorf("population slice exhausted: %d names left, scan wants %d", d.iter.Len(), n)
	}
	for i := 0; i < n; i++ {
		name, _ := d.iter.Next()
		res := d.res.Resolve(ctx, name, dnswire.TypeA)
		d.scanned++
		if res.Msg.RCode == dnswire.RCodeServFail {
			d.scanFailed++
		}
		obs.record(name.String(), res.Msg)
		d.sinceObserve++
		if d.sinceObserve >= d.observeEvery {
			d.sinceObserve = 0
			d.observe()
		}
	}
	return nil
}

// pressure feeds the governor synthetic observations — rounds batches of
// attempts with failures failures each — without touching the network, for
// pinpoint collapse/recovery staging.
func (d *campaignDriver) pressure(args []string) error {
	var attempts, failures uint64
	rounds := 1
	var haveA, haveF bool
	for _, arg := range args {
		k, v, ok := strings.Cut(arg, "=")
		if !ok {
			return fmt.Errorf("expected key=value, got %q", arg)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad %s count %q", k, v)
		}
		switch k {
		case "attempts":
			attempts, haveA = n, true
		case "failures":
			failures, haveF = n, true
		case "rounds":
			if n < 1 {
				return fmt.Errorf("rounds must be positive")
			}
			rounds = int(n)
		default:
			return fmt.Errorf("unknown pressure key %q", k)
		}
	}
	if !haveA || !haveF {
		return fmt.Errorf("pressure needs attempts= and failures=")
	}
	if failures > attempts {
		return fmt.Errorf("failures %d exceed attempts %d", failures, attempts)
	}
	for i := 0; i < rounds; i++ {
		d.cumA += attempts
		d.cumF += failures
		d.gov.Observe(d.cumA, d.cumF)
	}
	return nil
}
