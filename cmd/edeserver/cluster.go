// Cluster serving mode: -cluster N runs this process as the primary — N
// frontend replicas behind the consistent-hash router, with the control
// plane mounted on -admin — while -join URL runs it as a secondary that
// verifies the zone manifest and the vendor profile, serves its own front
// door, and announces itself so the primary routes its ring range here over
// UDP. Every replica builds its frontend from its own -cache-size and the
// frontend defaults, so nothing else has to be replicated.
//
//	edeserver -cluster 1 -listen 127.0.0.1:5300 -admin 127.0.0.1:9970 &
//	edeserver -join http://127.0.0.1:9970 -replica-id r1 -listen 127.0.0.1:5301 &
//	edeserver -join http://127.0.0.1:9970 -replica-id r2 -listen 127.0.0.1:5302 &
//
// SIGTERM on a secondary runs the rolling-restart protocol: announce
// drain (the primary stops routing new queries here), keep serving for
// drainGrace so forwarded in-flight queries finish, announce leave, then
// tear the listeners down. Restarting with the same -replica-id rejoins and
// takes the ring range back.
package main

import (
	"context"
	"fmt"
	"time"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// drainGrace is how long a draining secondary keeps serving between
// announcing drain and leaving.
const drainGrace = 500 * time.Millisecond

// profileEntry names the manifest line that carries the vendor profile. The
// profile decides which EDEs an answer carries, so replicas must agree on it
// as they agree on the zones; it travels in clear so a refusal can name both.
const profileEntry = "profile"

// clusterManifest derives the replication-plane manifest from the testbed's
// logical layout and the vendor profile. Hashing signed zone bytes would
// never match across processes — every Build() generates fresh signing keys
// — so the manifest pins what actually must agree for routing to be
// transparent: the case labels, groups, query names, Table 4 ground truth,
// and the profile that turns a resolution into EDEs.
func clusterManifest(tb *testbed.Testbed, prof *resolver.Profile) []cluster.ZoneInfo {
	zs := make([]cluster.ZoneInfo, 0, len(tb.Cases)+2)
	zs = append(zs, cluster.ZoneInfo{Name: profileEntry, Hash: prof.Name})
	zs = append(zs, cluster.ZoneInfo{
		Name: testbed.ParentZone.String(),
		Hash: cluster.HashZoneText(fmt.Sprintf("parent|%d cases", len(tb.Cases))),
	})
	for _, c := range tb.Cases {
		zs = append(zs, cluster.ZoneInfo{
			Name: c.Zone.String(),
			Hash: cluster.HashZoneText(fmt.Sprintf("%s|%d|%s|%v", c.Label, c.Group, c.Query, c.Expected)),
		})
	}
	return zs
}

// servePrimary serves the front door through a cluster of n local replicas
// and mounts its REST control plane on the admin listener so -join
// secondaries can verify the manifest and take ring ranges.
func (s *edeserver) servePrimary(ctx context.Context, n int) error {
	cl := cluster.New(cluster.Config{
		Seed:     20230515,
		Frontend: s.fcfg,
		Manifest: func() []cluster.ZoneInfo { return clusterManifest(s.tb, s.prof) },
	})
	for i := 0; i < n; i++ {
		res := s.newResolver()
		// The shared registry keeps one resolver's counters (registration
		// is idempotent per name); per-replica serving metrics live at
		// /api/cluster/metrics?replica=<id>.
		if i == 0 {
			res.RegisterMetrics(s.reg)
		}
		if _, err := cl.AddLocal(fmt.Sprintf("r%d", i), forwarder.ResolverUpstream{R: res}); err != nil {
			return fmt.Errorf("-cluster: %w", err)
		}
	}
	cl.RegisterMetrics(s.reg)
	if err := s.startAdmin(ctx, telemetry.Mount{Pattern: "/api/cluster/", Handler: cl.RESTHandler()}); err != nil {
		return err
	}
	fmt.Fprintf(s.stdout, "cluster primary: %d local replica(s) behind the consistent-hash router; control plane at /api/cluster/\n", n)
	return s.serve(ctx, cl, cl)
}

// serveSecondary refuses to join across a profile or zone-manifest
// mismatch, serves its own front door, and runs the drain → leave protocol
// when ctx ends (SIGTERM).
func (s *edeserver) serveSecondary(ctx context.Context, join, id, adv string) error {
	st, err := cluster.FetchState(ctx, join)
	if err != nil {
		return fmt.Errorf("-join %s: %w", join, err)
	}
	for _, z := range st.Zones {
		if z.Name == profileEntry && z.Hash != s.prof.Name {
			return fmt.Errorf("refusing to join %s: the primary answers as %s, this replica as %s (-profile)", join, z.Hash, s.prof.Name)
		}
	}
	if err := cluster.VerifyManifest(clusterManifest(s.tb, s.prof), st.Zones); err != nil {
		return fmt.Errorf("refusing to join %s: %w", join, err)
	}

	res := s.newResolver()
	res.RegisterMetrics(s.reg)
	fe := frontend.New(forwarder.ResolverUpstream{R: res}, s.fcfg)
	fe.RegisterMetrics(s.reg)
	if err := s.startAdmin(ctx); err != nil {
		return err
	}

	dnsAddr := s.conns[0].LocalAddr().String()
	if id == "" {
		id = "replica-" + dnsAddr
	}
	if adv == "" {
		adv = dnsAddr
	}
	// The UDP socket is already bound, so the primary may route here the
	// moment the join lands; queued packets drain when serving starts.
	joined, err := cluster.Join(ctx, join, id, adv)
	if err != nil {
		return fmt.Errorf("-join %s: %w", join, err)
	}
	fmt.Fprintf(s.stdout, "joined cluster at %s as %q (advertising %s, primary epoch %d)\n", join, id, adv, joined.Epoch)

	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	go func() {
		select {
		case <-ctx.Done():
		case <-serveCtx.Done():
			return // serving failed: there is nothing to drain
		}
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cluster.AnnounceDrain(dctx, join, id); err != nil {
			fmt.Fprintf(s.stderr, "edeserver: drain announce: %v\n", err)
		}
		// Keep serving while the primary's in-flight forwards finish.
		time.Sleep(drainGrace)
		if err := cluster.AnnounceLeave(dctx, join, id); err != nil {
			fmt.Fprintf(s.stderr, "edeserver: leave announce: %v\n", err)
		}
		cancelServe()
	}()
	if err := s.serve(serveCtx, fe, fe); err != nil {
		return err
	}
	fmt.Fprintf(s.stdout, "replica %q drained and left the cluster\n", id)
	return nil
}
