// Package campaign is the full-scale scan engine: it shards the streaming
// wild scan by population range across independent runners, checkpoints each
// shard's mergeable aggregate snapshot to disk, and governs load with
// per-authority token buckets plus a ZDNS-style concurrency governor driven
// by observed timeout/SERVFAIL rates.
//
// Every shard is an independent process over the same deterministically
// generated population: shard i of N scans domains [len·i/N, len·(i+1)/N).
// An interrupted shard resumes from its last checkpoint and converges to the
// byte-identical canonical snapshot an uninterrupted run produces (the
// per-domain outcomes are pure functions of the seeded population, and a
// checkpoint names exactly the names it folded: a frontier plus the names
// done past it).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// ErrCheckpointMismatch reports a resume attempt against a checkpoint that
// was written by a different campaign shape (shard index, shard count, or
// shard size).
var ErrCheckpointMismatch = errors.New("campaign: checkpoint does not match this shard")

// ErrInterrupted reports a run that stopped before finishing its shard; the
// returned snapshot is the consistent state a resume continues from.
var ErrInterrupted = errors.New("campaign: run interrupted")

// Config shapes one shard runner.
type Config struct {
	// Shards is the campaign's total shard count (default 1); Shard is this
	// runner's 0-based index.
	Shards int
	Shard  int
	// Workers is the scanner concurrency (default 32).
	Workers int
	// Profile is the vendor EDE profile (default Cloudflare, like the
	// paper's wild scan).
	Profile *resolver.Profile
	// Transport is the base upstream policy; the runner copies it before
	// installing its admission gate, never mutating the caller's value.
	Transport *resolver.TransportConfig

	// CheckpointPath is where this shard persists its snapshot ("" disables
	// checkpointing entirely). Writes are atomic (tmp + rename), so a kill
	// mid-write leaves the previous checkpoint intact.
	CheckpointPath string
	// CheckpointEvery checkpoints after every n folded results; 0 disables
	// the count trigger.
	CheckpointEvery int
	// CheckpointInterval checkpoints when this much wall time has passed
	// since the last write; 0 disables the time trigger. A final checkpoint
	// is always written when the run ends (complete or interrupted).
	CheckpointInterval time.Duration
	// Resume loads CheckpointPath (when it exists) and resolves only the
	// names it has not folded instead of starting the shard over.
	Resume bool

	// AuthorityQPS/AuthorityBurst cap the sustained query rate per
	// authoritative address; MaxQPS/MaxBurst cap the shard's global rate.
	// Zero disables the respective bucket.
	AuthorityQPS   float64
	AuthorityBurst float64
	MaxQPS         float64
	MaxBurst       float64

	// Governor enables the adaptive concurrency governor (nil leaves the
	// scan at full worker concurrency). GovernorInterval is how often the
	// feedback loop samples transport stats (default 250ms).
	Governor         *GovernorConfig
	GovernorInterval time.Duration

	// Registry, when set, receives the campaign gauges (per-shard progress,
	// domains/sec, tokens denied, governor concurrency, checkpoints).
	Registry *telemetry.Registry

	// now and sleep inject the limiter clock for deterministic tests.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
	// testOnResult, when set, observes every position the frontier passes —
	// tests use it to cancel the run at an exact, reproducible point.
	testOnResult func(pos uint64)
}

// CheckpointFile names shard i-of-n's snapshot inside dir — the layout the
// edescan -checkpoint-dir flag and edereport -merge agree on.
func CheckpointFile(dir string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.snap", shard, shards))
}

// ShardRange returns the half-open domain range [lo, hi) covered by shard
// i-of-n over a population of size total: contiguous, gapless, and balanced
// to within one domain.
func ShardRange(total, shard, shards int) (lo, hi int) {
	return total * shard / shards, total * (shard + 1) / shards
}

// Runner executes one shard of a campaign.
type Runner struct {
	cfg  Config
	wild *population.Wild

	limiter  *Limiter
	governor *Governor

	lo, hi int
	// folded counts the shard's names in the aggregates, pre-loaded with the
	// checkpoint's count on resume so progress reads monotonically.
	folded      atomic.Uint64
	checkpoints atomic.Uint64
	// rate bookkeeping for the domains/sec gauge.
	measureStart atomic.Int64 // unix nanos; 0 until the measurement pass starts
	startFolded  uint64

	// Scanner is the measurement scanner, populated by Run for callers that
	// want its throughput counters.
	Scanner *scan.Scanner
}

// New validates cfg and builds a shard runner over a materialized wild
// network.
func New(cfg Config, w *population.Wild) (*Runner, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", cfg.Shard, cfg.Shards)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.Profile == nil {
		cfg.Profile = resolver.ProfileCloudflare()
	}
	if cfg.GovernorInterval <= 0 {
		cfg.GovernorInterval = 250 * time.Millisecond
	}
	r := &Runner{cfg: cfg, wild: w}
	r.lo, r.hi = ShardRange(len(w.Pop.Domains), cfg.Shard, cfg.Shards)
	r.limiter = NewLimiter(LimiterConfig{
		AuthorityQPS:   cfg.AuthorityQPS,
		AuthorityBurst: cfg.AuthorityBurst,
		GlobalQPS:      cfg.MaxQPS,
		GlobalBurst:    cfg.MaxBurst,
		Now:            cfg.now,
		Sleep:          cfg.sleep,
	})
	if cfg.Governor != nil {
		gc := *cfg.Governor
		if gc.Max <= 0 {
			gc.Max = cfg.Workers
		}
		r.governor = NewGovernor(gc)
	}
	r.register()
	return r, nil
}

// register publishes the campaign gauges on the configured registry.
func (r *Runner) register() {
	reg := r.cfg.Registry
	if reg == nil {
		return
	}
	shard := telemetry.L("shard", strconv.Itoa(r.cfg.Shard))
	reg.GaugeFunc("edelab_campaign_shard_domains_done",
		"Domains folded into this shard's aggregates (monotonic across resumes).",
		func() float64 { return float64(r.folded.Load()) }, shard)
	reg.GaugeFunc("edelab_campaign_shard_domains_total",
		"Domains in this shard's population range.",
		func() float64 { return float64(r.hi - r.lo) }, shard)
	reg.GaugeFunc("edelab_campaign_domains_per_second",
		"This shard's measurement-pass scan rate.",
		func() float64 { done, _, rate := r.Progress(); _ = done; return rate }, shard)
	reg.CounterFunc("edelab_campaign_checkpoints_total",
		"Checkpoint snapshots written by this shard.",
		r.checkpoints.Load, shard)
	if r.limiter != nil {
		reg.CounterFunc("edelab_campaign_tokens_denied_total",
			"Admission attempts that found an empty token bucket and slept.",
			r.limiter.Denied, shard)
	}
	if r.governor != nil {
		reg.GaugeFunc("edelab_campaign_governor_concurrency",
			"Concurrency capacity currently granted by the AIMD governor.",
			func() float64 { return float64(r.governor.Concurrency()) }, shard)
	}
}

// Progress reports the shard's folded-domain count, range size, and the
// measurement pass's current domains/sec.
func (r *Runner) Progress() (done, total uint64, rate float64) {
	done = r.folded.Load()
	total = uint64(r.hi - r.lo)
	if start := r.measureStart.Load(); start != 0 {
		el := time.Since(time.Unix(0, start)).Seconds()
		if el > 0 {
			rate = float64(done-r.startFolded) / el
		}
	}
	return done, total, rate
}

// Governor returns the runner's governor (nil when disabled).
func (r *Runner) Governor() *Governor { return r.governor }

// Limiter returns the runner's admission limiter (nil when disabled).
func (r *Runner) Limiter() *Limiter { return r.limiter }

// loadCheckpoint reads and validates the resume snapshot; a missing file is
// a fresh start, not an error.
func (r *Runner) loadCheckpoint() (*scan.Snapshot, error) {
	b, err := os.ReadFile(r.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snap, err := scan.DecodeSnapshot(b)
	if err != nil {
		return nil, err
	}
	if snap.Shard != r.cfg.Shard || snap.Shards != r.cfg.Shards {
		return nil, fmt.Errorf("%w: snapshot is shard %d/%d, runner is %d/%d",
			ErrCheckpointMismatch, snap.Shard, snap.Shards, r.cfg.Shard, r.cfg.Shards)
	}
	if snap.Size != uint64(r.hi-r.lo) {
		return nil, fmt.Errorf("%w: snapshot covers %d names, shard has %d",
			ErrCheckpointMismatch, snap.Size, r.hi-r.lo)
	}
	return snap, nil
}

// writeCheckpoint persists snap atomically next to its final path.
func (r *Runner) writeCheckpoint(snap *scan.Snapshot) error {
	tmp := r.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, snap.Encode(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, r.cfg.CheckpointPath); err != nil {
		return err
	}
	r.checkpoints.Add(1)
	return nil
}

// Run executes the shard: warmup (scan.WarmScanner), optional resume, the
// rate-governed measurement pass with periodic checkpoints, and a final
// checkpoint. The returned snapshot is the shard's state at exit; if ctx
// ended before the shard finished, err wraps ErrInterrupted and the snapshot
// (also persisted when checkpointing is enabled) names exactly the names a
// resumed run need not resolve again.
func (r *Runner) Run(ctx context.Context) (*scan.Snapshot, error) {
	snaps, err := r.RunViews(ctx, []*resolver.Profile{r.cfg.Profile})
	if snaps == nil {
		return nil, err
	}
	return snaps[0], err
}

// RunViews is Run for every profile in views at the cost of one: the shard
// is resolved once, under cfg.Profile, and each result is folded into one
// snapshot per view as that profile reports it (scan.Result.ReportedBy).
// Every view must share cfg.Profile's behaviour class
// (resolver.Profile.SameBehaviour), which makes each snapshot the one a Run
// under that profile produces. A checkpoint holds one snapshot, so more than
// one view cannot checkpoint.
func (r *Runner) RunViews(ctx context.Context, views []*resolver.Profile) ([]*scan.Snapshot, error) {
	cfg := r.cfg
	w := r.wild
	if len(views) == 0 {
		return nil, errors.New("campaign: no profile to report the scan as")
	}
	for _, v := range views {
		if !v.SameBehaviour(cfg.Profile) {
			return nil, fmt.Errorf("campaign: %s resolves differently from %s; it needs its own scan", v.Name, cfg.Profile.Name)
		}
	}
	if len(views) > 1 && cfg.CheckpointPath != "" {
		return nil, fmt.Errorf("campaign: a checkpoint holds one snapshot, not the %d of a multi-profile run", len(views))
	}

	var resumeFrom *scan.Snapshot
	if cfg.Resume && cfg.CheckpointPath != "" {
		snap, err := r.loadCheckpoint()
		if err != nil {
			return nil, err
		}
		resumeFrom = snap
	}

	scanner := scan.WarmScanner(ctx, w, cfg.Profile, cfg.Workers, cfg.Transport)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%w: during warmup: %w", ErrInterrupted, ctx.Err())
	}
	res := scanner.Resolver

	// The admission gate and governor attach only now: warmup is not part
	// of the governed scan.
	if r.limiter != nil {
		tc := resolver.TransportConfig{}
		if cfg.Transport != nil {
			tc = *cfg.Transport
		}
		tc.Admit = r.limiter.Admit
		res.Transport = &tc
	}
	if r.governor != nil {
		scanner.Gate = r.governor
		govDone := make(chan struct{})
		defer close(govDone)
		go func() {
			tick := time.NewTicker(cfg.GovernorInterval)
			defer tick.Stop()
			for {
				select {
				case <-govDone:
					return
				case <-tick.C:
					st := res.TransportStats()
					// Timeouts and upstream SERVFAILs are the pressure
					// signal; terminal SERVFAILs are excluded because a
					// broken-domain population keeps those permanently
					// above any sane low-water mark.
					r.governor.Observe(res.QueryCount.Load(), st.Timeouts+st.UpstreamServfails)
				}
			}
		}()
	}

	snaps := make([]*scan.Snapshot, len(views))
	for i := range snaps {
		snaps[i] = &scan.Snapshot{
			Shard: cfg.Shard, Shards: cfg.Shards, Size: uint64(r.hi - r.lo),
			Agg: scan.NewAggregate(), TLD: scan.NewTLDAggregate(w.Pop), Tranco: scan.NewTrancoAggregate(w.Pop),
		}
	}
	snap := snaps[0]
	var baseQueries, baseResolutions, startFolded uint64
	var done frontier
	var src scan.NameSource = w.Pop.NamesRange(r.lo, r.hi)
	if resumeFrom != nil {
		snap.Agg.Merge(resumeFrom.Agg)
		snap.TLD.Merge(resumeFrom.TLD)
		snap.Tranco.Merge(resumeFrom.Tranco)
		baseQueries = resumeFrom.Queries
		baseResolutions = resumeFrom.Resolutions
		startFolded = resumeFrom.FoldedCount()
		done.load(resumeFrom)
		src = unfolded(w.Pop.NamesRange(r.lo, r.hi), resumeFrom)
	}
	r.startFolded = startFolded
	r.folded.Store(startFolded)
	r.measureStart.Store(time.Now().UnixNano())

	queriesAt := res.QueryCount.Load()
	resolutionsAt := res.ResolutionCount.Load()
	stamp := func() {
		done.stamp(snap)
		for _, s := range snaps {
			s.Position, s.Done = snap.Position, snap.Done
			s.Queries = baseQueries + res.QueryCount.Load() - queriesAt
			s.Resolutions = baseResolutions + res.ResolutionCount.Load() - resolutionsAt
		}
	}

	var ckptErr error
	lastCkpt := time.Now()
	// Every result is folded as it completes, in whatever order the workers
	// finish; the frontier records which names that covers. A Skipped result
	// (the run was cancelled first) is not folded, so a resume resolves it.
	scanner.ScanStream(ctx, src, func(sr scan.Result) {
		if sr.Skipped {
			return
		}
		for i, s := range snaps {
			vr := sr
			if views[i] != cfg.Profile {
				vr = sr.ReportedBy(views[i])
			}
			s.Agg.Add(vr)
			s.TLD.Add(vr)
			s.Tranco.Add(vr)
		}
		i, ok := w.Pop.Index(sr.Domain)
		if !ok {
			panic("campaign: scanned " + sr.Domain.String() + ", which the population does not hold")
		}
		before := done.pos
		done.mark(uint64(i - r.lo))
		if cfg.testOnResult != nil {
			for pos := before + 1; pos <= done.pos; pos++ {
				cfg.testOnResult(pos)
			}
		}
		folded := r.folded.Add(1)
		if cfg.CheckpointPath == "" || ckptErr != nil {
			return
		}
		due := cfg.CheckpointEvery > 0 && (folded-startFolded)%uint64(cfg.CheckpointEvery) == 0
		if !due && cfg.CheckpointInterval > 0 && time.Since(lastCkpt) >= cfg.CheckpointInterval {
			due = true
		}
		if due {
			stamp()
			if err := r.writeCheckpoint(snap); err != nil {
				ckptErr = err
				return
			}
			lastCkpt = time.Now()
		}
	})

	stamp()
	if cfg.CheckpointPath != "" && ckptErr == nil {
		ckptErr = r.writeCheckpoint(snap)
	}
	r.Scanner = scanner
	if ckptErr != nil {
		return snaps, fmt.Errorf("campaign: checkpoint: %w", ckptErr)
	}
	if snap.Position < snap.Size {
		err := ctx.Err()
		if err == nil {
			err = errors.New("scan ended early")
		}
		return snaps, fmt.Errorf("%w at position %d/%d: %w", ErrInterrupted, snap.Position, snap.Size, err)
	}
	return snaps, nil
}

// frontier is the set of a shard's names that are folded: every name below
// pos, and those past it whose bit is set in ahead. Bit j of ahead stands
// for name base+j, where base is pos rounded down to a multiple of 64, so
// the set costs one bit per name between the frontier and the furthest name
// done past it.
type frontier struct {
	pos, base uint64
	ahead     []uint64
}

// mark adds name i, which must not be in the set yet, and advances the
// frontier over every name now contiguous with it.
func (f *frontier) mark(i uint64) {
	w := (i - f.base) / 64
	for uint64(len(f.ahead)) <= w {
		f.ahead = append(f.ahead, 0)
	}
	f.ahead[w] |= 1 << ((i - f.base) % 64)
	for f.has(f.pos) {
		f.pos++
	}
	if k := (f.pos - f.base) / 64; k > 0 {
		f.ahead = f.ahead[k:]
		f.base += 64 * k
	}
}

// has reports whether name i, at or past the frontier, is in the set.
func (f *frontier) has(i uint64) bool {
	w := (i - f.base) / 64
	return w < uint64(len(f.ahead)) && f.ahead[w]&(1<<((i-f.base)%64)) != 0
}

// load starts the set from a checkpoint's.
func (f *frontier) load(s *scan.Snapshot) {
	*f = frontier{pos: s.Position, base: s.Position &^ 63}
	for b := range uint64(8 * len(s.Done)) {
		if i := s.Position + 1 + b; s.Folded(i) {
			f.mark(i)
		}
	}
}

// stamp writes the set into s as its Position and Done.
func (f *frontier) stamp(s *scan.Snapshot) {
	s.Position, s.Done = f.pos, s.Done[:0]
	for i := f.pos + 1; i < f.base+64*uint64(len(f.ahead)); i++ {
		if f.has(i) {
			b := i - f.pos - 1
			for uint64(len(s.Done)) <= b/8 {
				s.Done = append(s.Done, 0)
			}
			s.Done[b/8] |= 1 << (b % 8)
		}
	}
}

// unfoldedNames yields the names of a shard that a checkpoint has not folded.
type unfoldedNames struct {
	names *population.NameIter
	i     uint64 // shard index of the next name in names
	snap  *scan.Snapshot
}

// unfolded skips names past everything snap folded: the prefix below its
// frontier at once, the done set past it name by name.
func unfolded(names *population.NameIter, snap *scan.Snapshot) *unfoldedNames {
	names.Skip(int(snap.Position))
	return &unfoldedNames{names: names, i: snap.Position, snap: snap}
}

func (u *unfoldedNames) Next() (dnswire.Name, bool) {
	for {
		name, ok := u.names.Next()
		u.i++
		if !ok || !u.snap.Folded(u.i-1) {
			return name, ok
		}
	}
}
