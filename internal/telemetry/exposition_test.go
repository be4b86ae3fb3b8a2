package telemetry_test

import (
	"context"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// TestLiveRegistryExpositionParses: the registry edeserver -mode resolver
// scrapes — netsim, resolver, frontend and front door all registered into
// one, after one query — passes the strict exposition parse and carries
// each subsystem's families.
func TestLiveRegistryExpositionParses(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tb.Net.RegisterMetrics(reg)
	res := tb.NewResolver(resolver.ProfileCloudflare())
	res.RegisterMetrics(reg)
	fe := frontend.New(forwarder.ResolverUpstream{R: res}, frontend.Config{})
	fe.RegisterMetrics(reg)
	transport.NewServer(transport.Config{Handler: fe, Registry: reg})

	q := dnswire.NewQuery(1, dnswire.MustName("rrsig-exp-all.extended-dns-errors.com"), dnswire.TypeA)
	if _, err := fe.HandleDNS(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := telemetry.ParseExposition(t, sb.String())
	for _, want := range []string{
		"edelab_frontend_queries_total",
		"edelab_resolver_resolutions_total",
		"edelab_resolver_rtt_seconds_bucket",
		"edelab_netsim_queries_total",
		"edelab_frontdoor_queries_total",
	} {
		found := false
		for k := range samples {
			found = found || strings.HasPrefix(k, want)
		}
		if !found {
			t.Errorf("exposition lacks family %s", want)
		}
	}
	if samples["edelab_frontend_queries_total"] != 1 {
		t.Errorf("edelab_frontend_queries_total = %v after one query, want 1", samples["edelab_frontend_queries_total"])
	}
}
