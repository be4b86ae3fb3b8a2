package campaign

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

// Limiter enforces per-authority and global token buckets at the resolver's
// admission point (resolver.TransportConfig.Admit). Each bucket refills
// continuously at its rate up to its burst, max(1, rate); an attempt needs
// one token from the authority's bucket AND one from the global bucket,
// taken atomically so a denied attempt never leaks a token from the other
// bucket.
type Limiter struct {
	// authorityQPS is Config.AuthorityQPS; now and sleep are the clock,
	// Config's test clock or the real one.
	authorityQPS float64
	now          func() time.Time
	sleep        func(context.Context, time.Duration) error
	global       *bucket
	shards       [16]limiterShard
	// denied counts admission attempts that found an empty bucket and had
	// to sleep (the campaign's edelab_campaign_tokens_denied_total gauge);
	// admitted counts successful admissions.
	denied   atomic.Uint64
	admitted atomic.Uint64
}

type limiterShard struct {
	mu sync.Mutex
	m  map[netip.Addr]*bucket
}

// bucket is one token bucket; all fields are guarded by mu.
type bucket struct {
	mu       sync.Mutex
	rate     float64
	burst    float64
	tokens   float64
	last     time.Time
	admitted uint64
}

// newBucket is a bucket refilling at rate tokens per second, one second of
// tokens deep (at least one).
func newBucket(rate float64) *bucket { return &bucket{rate: rate, burst: max(1, rate)} }

// refill credits tokens for the time elapsed since the last refill. A fresh
// bucket starts full.
func (b *bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		b.tokens = b.burst
		return
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// deficit returns how long until the bucket holds one token (0 = ready now).
func (b *bucket) deficit() time.Duration {
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// newLimiter builds the admission gate of a campaign configured with cfg:
// per-authority buckets at AuthorityQPS and a global one at MaxQPS, a zero
// rate disabling its layer. With both zero it returns nil, which the
// resolver treats as "no admission gate".
func newLimiter(cfg Config) *Limiter {
	if cfg.AuthorityQPS <= 0 && cfg.MaxQPS <= 0 {
		return nil
	}
	l := &Limiter{authorityQPS: cfg.AuthorityQPS, now: cfg.now, sleep: cfg.sleep}
	if l.now == nil {
		l.now = time.Now
	}
	if l.sleep == nil {
		l.sleep = realSleep
	}
	if cfg.MaxQPS > 0 {
		l.global = newBucket(cfg.MaxQPS)
	}
	for i := range l.shards {
		l.shards[i].m = make(map[netip.Addr]*bucket)
	}
	return l
}

func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// bucketFor returns (creating on first use) the authority's bucket, or nil
// when per-authority limiting is disabled.
func (l *Limiter) bucketFor(addr netip.Addr) *bucket {
	if l.authorityQPS <= 0 {
		return nil
	}
	sh := &l.shards[shardIndex(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.m[addr]
	if !ok {
		b = newBucket(l.authorityQPS)
		sh.m[addr] = b
	}
	return b
}

func shardIndex(addr netip.Addr) int {
	b := addr.As16()
	return int(fnv1a.Sum32(b[:]) % 16)
}

// Admit blocks until both buckets release a token for one query attempt
// against addr, or ctx ends. It satisfies resolver.TransportConfig.Admit.
func (l *Limiter) Admit(ctx context.Context, addr netip.Addr) error {
	ab := l.bucketFor(addr)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		wait := l.reserve(ab)
		if wait == 0 {
			l.admitted.Add(1)
			return nil
		}
		l.denied.Add(1)
		if err := l.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// reserve takes one token from each enabled bucket if both have one,
// returning 0; otherwise it consumes nothing and returns how long until the
// emptier bucket is ready. Both buckets are held locked together (authority
// first, then global — a fixed order, so no deadlock) to keep the
// take-from-both atomic.
func (l *Limiter) reserve(ab *bucket) time.Duration {
	now := l.now()
	if ab != nil {
		ab.mu.Lock()
		defer ab.mu.Unlock()
		ab.refill(now)
	}
	if l.global != nil {
		l.global.mu.Lock()
		defer l.global.mu.Unlock()
		l.global.refill(now)
	}
	var wait time.Duration
	if ab != nil {
		wait = ab.deficit()
	}
	if l.global != nil {
		if d := l.global.deficit(); d > wait {
			wait = d
		}
	}
	if wait > 0 {
		return wait
	}
	if ab != nil {
		ab.tokens--
		ab.admitted++
	}
	if l.global != nil {
		l.global.tokens--
	}
	return 0
}

// Denied returns how many admission attempts had to wait for tokens.
func (l *Limiter) Denied() uint64 { return l.denied.Load() }

// Admitted returns how many attempts were admitted in total.
func (l *Limiter) Admitted() uint64 { return l.admitted.Load() }
