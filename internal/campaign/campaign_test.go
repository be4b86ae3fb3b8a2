package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// buildWild materializes a fresh wild network for one simulated shard
// process. Every call uses the same seed: separate runners over separate
// wilds model separate OS processes scanning the same deterministic
// population, which is exactly the campaign deployment shape.
func buildWild(t testing.TB, domains int) *population.Wild {
	t.Helper()
	pop := population.Generate(population.Config{TotalDomains: domains, Seed: 42})
	w, err := population.Materialize(pop)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return w
}

func TestShardRangeCoversPopulation(t *testing.T) {
	for _, total := range []int{0, 1, 7, 3030, 303_000} {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			prev := 0
			for s := 0; s < shards; s++ {
				lo, hi := ShardRange(total, s, shards)
				if lo != prev {
					t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d", total, shards, s, lo, prev)
				}
				if hi < lo {
					t.Fatalf("total=%d shards=%d: shard %d inverted range [%d,%d)", total, shards, s, lo, hi)
				}
				prev = hi
			}
			if prev != total {
				t.Fatalf("total=%d shards=%d: ranges cover %d", total, shards, prev)
			}
		}
	}
}

// TestCampaignKillResumeByteIdentity is the tentpole invariant: a shard
// cancelled mid-run and resumed from its checkpoint in a fresh process must
// converge to a canonical aggregate byte-identical to an uninterrupted run.
func TestCampaignKillResumeByteIdentity(t *testing.T) {
	const domains = 3030
	ckpt := filepath.Join(t.TempDir(), "shard-0-of-1.snap")

	// Reference: one uninterrupted run. Generate rounds the domain count up
	// to satisfy per-TLD quotas, so the authoritative total is the actual
	// population size, not the requested one.
	refWild := buildWild(t, domains)
	total := uint64(len(refWild.Pop.Domains))
	ref, err := New(Config{Workers: 8}, refWild)
	if err != nil {
		t.Fatal(err)
	}
	refSnap, err := ref.Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if refSnap.Position != total {
		t.Fatalf("reference position %d, want %d", refSnap.Position, total)
	}

	// Interrupted run: cancel deterministically at position 1200.
	ctx, cancel := context.WithCancel(context.Background())
	intr, err := New(Config{
		Workers:         8,
		CheckpointPath:  ckpt,
		checkpointEvery: 256,
		testOnResult: func(pos uint64) {
			if pos == 1200 {
				cancel()
			}
		},
	}, buildWild(t, domains))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := intr.Run(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if partial.Position < 1200 || partial.Position >= total {
		t.Fatalf("interrupted at position %d, want [1200, %d)", partial.Position, total)
	}

	// The on-disk checkpoint must itself be a decodable prefix snapshot.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := scan.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("checkpoint decode: %v", err)
	}
	if onDisk.Position != partial.Position {
		t.Fatalf("checkpoint position %d != returned %d", onDisk.Position, partial.Position)
	}

	// Resume in a "fresh process" (fresh wild, fresh runner).
	resumed, err := New(Config{
		Workers:        8,
		CheckpointPath: ckpt,
		Resume:         true,
	}, buildWild(t, domains))
	if err != nil {
		t.Fatal(err)
	}
	finalSnap, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if finalSnap.Position != total {
		t.Fatalf("resumed position %d, want %d", finalSnap.Position, total)
	}
	if done, total, _ := resumed.Progress(); done != total {
		t.Fatalf("progress after resume: %d/%d", done, total)
	}

	if !bytes.Equal(refSnap.AggregateBytes(), finalSnap.AggregateBytes()) {
		t.Fatal("resumed aggregate differs from uninterrupted run")
	}
	// And the persisted final checkpoint carries the same canonical bytes.
	raw, err = os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err = scan.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap.AggregateBytes(), onDisk.AggregateBytes()) {
		t.Fatal("persisted final checkpoint differs from uninterrupted run")
	}
}

// TestCampaignShardsMergeMatchesSingle: two half-population shards run in
// separate processes, merged, must equal the single-shard whole.
func TestCampaignShardsMergeMatchesSingle(t *testing.T) {
	const domains = 3030

	singleWild := buildWild(t, domains)
	total := uint64(len(singleWild.Pop.Domains))
	single, err := New(Config{Workers: 8}, singleWild)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := single.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var parts []*scan.Snapshot
	for shard := 0; shard < 2; shard++ {
		r, err := New(Config{Workers: 8, Shards: 2, Shard: shard}, buildWild(t, domains))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		parts = append(parts, snap)
	}
	parts[0].Merge(parts[1])
	if parts[0].Position != total {
		t.Fatalf("merged position %d, want %d", parts[0].Position, total)
	}
	if !bytes.Equal(whole.AggregateBytes(), parts[0].AggregateBytes()) {
		t.Fatal("merged shard aggregates differ from the single-shard run")
	}
}

func TestCampaignResumeRejectsMismatchedShape(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "shard.snap")
	w := buildWild(t, 3030)
	r, err := New(Config{Workers: 8, Shards: 2, Shard: 0, CheckpointPath: ckpt}, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Same file, different campaign shape.
	r2, err := New(Config{Workers: 8, Shards: 2, Shard: 1, CheckpointPath: ckpt, Resume: true}, buildWild(t, 3030))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background()); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume with wrong shard: %v, want ErrCheckpointMismatch", err)
	}
	// Corrupt file.
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := New(Config{Workers: 8, Shards: 2, Shard: 0, CheckpointPath: ckpt, Resume: true}, buildWild(t, 3030))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Run(context.Background()); !errors.Is(err, scan.ErrSnapshotCorrupt) {
		t.Fatalf("resume from corrupt checkpoint: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestCampaignRateLimitedScan wires the limiter through the resolver's
// admission point over the virtual clock and asserts the per-authority
// bucket law held for every authoritative address the scan touched.
func TestCampaignRateLimitedScan(t *testing.T) {
	clk := newVClock()
	const rate = 50.0
	const burst = rate // a bucket holds one second of tokens
	w := buildWild(t, 303)
	r, err := New(Config{
		Workers:      8,
		AuthorityQPS: rate,
		now:          clk.now,
		sleep:        clk.sleep,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	start := clk.now()
	snap, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(w.Pop.Domains)); snap.Position != want {
		t.Fatalf("position %d, want %d", snap.Position, want)
	}
	elapsed := clk.now().Sub(start).Seconds()
	l := r.Limiter()
	if l.Admitted() == 0 {
		t.Fatal("limiter admitted nothing — Admit is not wired into the resolver")
	}
	checked := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.m {
			b.mu.Lock()
			admitted := float64(b.admitted)
			b.mu.Unlock()
			if admitted > burst+rate*elapsed+1e-6 {
				sh.mu.Unlock()
				t.Fatalf("authority %s admitted %.0f > %.2f (burst + rate×%.2fs)", addr, admitted, burst+rate*elapsed, elapsed)
			}
			checked++
		}
		sh.mu.Unlock()
	}
	if checked == 0 {
		t.Fatal("no authority buckets created")
	}
}

// TestCampaignTelemetry asserts the campaign gauges are live on the registry.
func TestCampaignTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := buildWild(t, 303)
	r, err := New(Config{
		Workers:      8,
		AuthorityQPS: 1000,
		Governor:     &GovernorConfig{Min: 2},
		Registry:     reg,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		t.Helper()
		v, ok := reg.Value(name, telemetry.L("shard", "0"))
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	want := float64(len(w.Pop.Domains))
	if got := get("edelab_campaign_shard_domains_done"); got != want {
		t.Fatalf("domains_done = %v, want %v", got, want)
	}
	if got := get("edelab_campaign_shard_domains_total"); got != want {
		t.Fatalf("domains_total = %v, want %v", got, want)
	}
	if got := get("edelab_campaign_governor_concurrency"); got < 2 || got > 8 {
		t.Fatalf("governor_concurrency = %v, want within [2,8]", got)
	}
	if _, ok := reg.Value("edelab_campaign_tokens_denied_total", telemetry.L("shard", "0")); !ok {
		t.Fatal("tokens_denied_total not registered")
	}
	if _, ok := reg.Value("edelab_campaign_domains_per_second", telemetry.L("shard", "0")); !ok {
		t.Fatal("domains_per_second not registered")
	}
}

// TestRunViewsIsRunPerProfile: the multi-vendor comparison resolves the shard
// once per behaviour class and reports every profile of the class from that
// one pass. Each profile's snapshot must be byte-identical to a Run under
// that profile alone. Every pass runs on one wild: a pass sets the wild
// clock, and the stale class's authorities go dark by that clock, so no
// pass sees what an earlier one left. The classes' passes run forward and
// then reversed, and each profile's aggregates must not depend on the
// order. SERVFAIL counts follow Profile.ServeStale: BIND and Cloudflare
// answer the stale class with its expired records, the other five SERVFAIL,
// so those two are where an order dependence would show.
func TestRunViewsIsRunPerProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("thirteen passes over 3,030 domains; the full run covers them")
	}
	ctx := context.Background()
	w := buildWild(t, 3030)
	classes := resolver.ByBehaviour(resolver.AllProfiles())
	views := func(classes [][]*resolver.Profile) map[string][]byte {
		viewed := make(map[string][]byte)
		for _, class := range classes {
			r, err := New(Config{Workers: 8, Profile: class[0]}, w)
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := r.RunViews(ctx, class)
			if err != nil {
				t.Fatalf("%s's class: %v", class[0].Name, err)
			}
			for i, p := range class {
				viewed[p.Name] = snaps[i].AggregateBytes()
			}
		}
		return viewed
	}
	viewed := views(classes)
	if len(viewed) != 7 {
		t.Fatalf("compare reported %d profiles, want 7", len(viewed))
	}
	slices.Reverse(classes)
	reversed := views(classes)
	for _, p := range resolver.AllProfiles() {
		if !bytes.Equal(reversed[p.Name], viewed[p.Name]) {
			t.Errorf("%s: its aggregates depend on the order the classes scan in", p.Name)
		}
		r, err := New(Config{Workers: 8, Profile: p}, w)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := r.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !bytes.Equal(snap.AggregateBytes(), viewed[p.Name]) {
			t.Errorf("%s: the aggregates its class's pass reports differ from its own run's", p.Name)
		}
	}
}

// TestRunViewsRefuses: a profile of another behaviour class resolves
// differently, so it cannot be reported from this pass; and a checkpoint
// holds one snapshot.
func TestRunViewsRefuses(t *testing.T) {
	w := buildWild(t, 1515)
	cf, unbound := resolver.ProfileCloudflare(), resolver.ProfileUnbound()
	for _, tc := range []struct {
		cfg   Config
		views []*resolver.Profile
		why   string
	}{
		{Config{Profile: unbound}, nil, "no profile"},
		{Config{Profile: unbound}, []*resolver.Profile{unbound, cf}, "resolves differently"},
		{Config{Profile: unbound, CheckpointPath: filepath.Join(t.TempDir(), "c.snap")},
			[]*resolver.Profile{unbound, resolver.ProfileKnot()}, "holds one snapshot"},
	} {
		r, err := New(tc.cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunViews(context.Background(), tc.views); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%d views: err = %v, want one mentioning %q", len(tc.views), err, tc.why)
		}
	}
}

// holdHandler is a TLD server that holds the first query for one name until
// release is closed, and answers everything else at once.
type holdHandler struct {
	next    netsim.Handler
	name    dnswire.Name
	release chan struct{}
	once    sync.Once
}

func (h *holdHandler) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Question) == 1 && q.Question[0].Name == h.name {
		first := false
		h.once.Do(func() { first = true })
		if first {
			<-h.release
		}
	}
	return h.next.HandleDNS(ctx, q)
}

// TestHeldLaggardIsNamedNotBuffered: one early name's resolution is held
// while the rest of the shard completes. The checkpoint taken meanwhile puts
// the frontier at that name and every later name in the done set; a resume
// from it after a kill resolves that one name alone and reaches the
// aggregates of an uninterrupted run.
func TestHeldLaggardIsNamedNotBuffered(t *testing.T) {
	// Shard 0 of 8 of a 2,118-domain population: 264 names, each fold
	// checkpointed.
	const domains, shards = 303, 8
	ref, err := New(Config{Workers: 4, Shards: shards}, buildWild(t, domains))
	if err != nil {
		t.Fatal(err)
	}
	refSnap, err := ref.Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	w := buildWild(t, domains)
	_, total := ShardRange(len(w.Pop.Domains), 0, shards)
	held := 5
	for w.Pop.Domains[held].Class == population.ClassStale { // the warm-up asks those
		held++
	}
	d := w.Pop.Domains[held]
	tld, ok := w.Net.HandlerAt(d.TLD.Addr)
	if !ok {
		t.Fatalf("no server at %s's TLD address", d.Name)
	}
	hold := &holdHandler{next: tld, name: d.Name, release: make(chan struct{})}
	w.Net.Register(d.TLD.Addr, hold)

	ckpt := CheckpointFile(t.TempDir(), 0, shards)
	reg := telemetry.NewRegistry()
	r, err := New(Config{Workers: 4, Shards: shards, CheckpointPath: ckpt, checkpointEvery: 1, Registry: reg}, w)
	if err != nil {
		t.Fatal(err)
	}
	var heldSnap *scan.Snapshot
	errc := make(chan error, 1)
	go func() {
		var err error
		heldSnap, err = r.Run(context.Background())
		errc <- err
	}()
	released := false
	defer func() {
		if !released {
			close(hold.release)
		}
	}()

	// Every name but the held one folds, and each fold checkpoints.
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if n, _ := reg.Value("edelab_campaign_checkpoints_total", telemetry.L("shard", "0")); n == float64(total-1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the shard's other %d names never all folded", total-1)
		}
	}
	if done, _, _ := r.Progress(); done != uint64(total-1) {
		t.Fatalf("progress reads %d done, want the %d folded", done, total-1)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := scan.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Position != uint64(held) {
		t.Fatalf("checkpoint frontier %d, want the held name's %d", snap.Position, held)
	}
	for i := held + 1; i < total; i++ {
		if !snap.Folded(uint64(i)) {
			t.Fatalf("name %d finished but is not in the checkpoint's done set", i)
		}
	}

	// The kill: what survives is the checkpoint on disk. (The held run goes
	// on in the background until the end of the test.)
	survived := CheckpointFile(t.TempDir(), 0, shards)
	if err := os.WriteFile(survived, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(Config{Workers: 4, Shards: shards, CheckpointPath: survived, Resume: true}, buildWild(t, domains))
	if err != nil {
		t.Fatal(err)
	}
	final, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if n := resumed.Scanner.Resolutions; n != 1 {
		t.Fatalf("resume resolved %d names, want only the held one", n)
	}
	if final.Position != uint64(total) || len(final.Done) != 0 {
		t.Fatalf("resumed run ends at %d/%d with done set % x", final.Position, total, final.Done)
	}
	if !bytes.Equal(refSnap.AggregateBytes(), final.AggregateBytes()) {
		t.Fatal("resumed aggregate differs from the uninterrupted run's")
	}

	// Released, the laggard folds last and the held run finishes whole.
	released = true
	close(hold.release)
	if err := <-errc; err != nil {
		t.Fatalf("held run, released: %v", err)
	}
	if !bytes.Equal(refSnap.AggregateBytes(), heldSnap.AggregateBytes()) {
		t.Fatal("the held run's aggregate differs from the uninterrupted run's")
	}
}
