package scenario

import (
	"context"
	"fmt"

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

	scanned uint64
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
	d.gov = campaign.NewGovernor(campaign.GovernorConfig{Min: g.Min, Max: g.Max, Step: g.Step})
	d.observeEvery = g.ObserveEvery
	if d.observeEvery <= 0 {
		d.observeEvery = 25
	}

	d.iter = pop.Names()

	d.res.RegisterMetrics(reg)
	reg.GaugeFunc("edelab_campaign_governor_concurrency",
		"The AIMD governor's current concurrency capacity.",
		func() float64 { return float64(d.gov.Concurrency()) })
	reg.CounterFunc("edelab_scenario_scan_names_total",
		"Population names the scenario has scanned.",
		func() uint64 { return d.scanned })
	return nil
}

func (d *campaignDriver) act(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "scan":
		return d.scan(ctx, a.Args, obs)
	case "flush":
		d.res.Cache.Flush()
		return nil
	}
	return ErrUnknownAction
}

// observe feeds the governor the resolver's cumulative counters and lets it
// adjust capacity.
func (d *campaignDriver) observe() {
	st := d.res.TransportStats()
	d.gov.Observe(d.res.QueryCount.Load(), st.Timeouts+st.UpstreamServfails)
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
		obs.record(name.String(), res.Msg)
		d.sinceObserve++
		if d.sinceObserve >= d.observeEvery {
			d.sinceObserve = 0
			d.observe()
		}
	}
	return nil
}
