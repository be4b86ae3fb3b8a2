package scenario

import (
	"context"
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// clusterDriver runs scenarios against the clustered serving tier: N
// frontend replicas (each with its own vendor-profile resolver over the
// shared testbed) behind the consistent-hash query router. Lifecycle verbs
// (kill, rejoin) exercise takeover and ring-range absorption; the
// sweep verb walks the selected Table 4 cases through the router so a
// table4 expect proves cell invariance across replica churn.
type clusterDriver struct {
	*lab
	cl   *cluster.Cluster
	prof *resolver.Profile
}

func (d *clusterDriver) setup(l *lab) error {
	d.lab = l
	var err error
	if err = l.useTestbed(); err != nil {
		return err
	}
	if d.prof, err = l.profile(); err != nil {
		return err
	}

	sc := l.sc
	replicas := sc.Cluster.Replicas
	if replicas <= 0 {
		replicas = 3
	}
	d.cl = cluster.New(cluster.Config{
		Seed:     l.seed,
		Frontend: l.frontendConfig(),
	})
	for i := 0; i < replicas; i++ {
		up := forwarder.ResolverUpstream{R: l.newResolver(d.prof)}
		if _, err := d.cl.AddLocal(fmt.Sprintf("r%d", i), up); err != nil {
			return err
		}
	}
	d.cl.RegisterMetrics(l.reg)
	return nil
}

func (d *clusterDriver) act(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "advance":
		return d.advance(a.Args)
	case "sweep":
		// One Table 4 column through the router: client-visible EDE sets must
		// match the ground truth regardless of which replica — owner or
		// takeover — served each cell.
		if len(a.Args) != 0 {
			return fmt.Errorf("sweep takes no arguments")
		}
		cells, err := d.walk([]*resolver.Profile{d.prof}, func(c testbed.Case, _ int) (*dnswire.Message, error) {
			return d.cl.HandleDNS(ctx, d.newQuery(c.Query))
		})
		if err != nil {
			return err
		}
		obs.cells = cells
		return nil
	case "kill", "rejoin":
		if len(a.Args) != 1 {
			return fmt.Errorf("%s needs a replica ID", a.Verb)
		}
		if a.Verb == "kill" {
			return d.cl.Kill(a.Args[0])
		}
		return d.cl.Rejoin(a.Args[0])
	case "query":
		return d.query(ctx, a.Args, obs)
	}
	return ErrUnknownAction
}

// query sends n sequential client queries for one case through the router.
func (d *clusterDriver) query(ctx context.Context, args []string, obs *observations) error {
	label, n, err := queryArgs(args)
	if err != nil {
		return err
	}
	c, err := d.caseFor(label)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		resp, err := d.cl.HandleDNS(ctx, d.newQuery(c.Query))
		if err != nil {
			return err
		}
		obs.record(fmt.Sprintf("%s#%d", label, i+1), resp)
	}
	return nil
}
