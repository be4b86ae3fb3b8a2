package campaign

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// vclock is a virtual limiter clock: Sleep advances time instead of waiting,
// so token-bucket behaviour is proven deterministically and instantly.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVClock() *vclock { return &vclock{t: time.Unix(1_700_000_000, 0)} }

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
	return nil
}

// TestLimiterCapsPerAuthorityQPS is the deterministic qps-cap proof: with
// rate R (and so burst B = R), admitting N attempts must consume exactly
// (N-B)/R seconds of (virtual) time — no schedule can exceed B + R·elapsed
// admissions.
func TestLimiterCapsPerAuthorityQPS(t *testing.T) {
	clk := newVClock()
	l := newLimiter(Config{AuthorityQPS: 2, now: clk.now, sleep: clk.sleep})
	addr := netip.MustParseAddr("198.19.0.1")
	ctx := context.Background()
	start := clk.now()
	for i := 0; i < 10; i++ {
		if err := l.Admit(ctx, addr); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	elapsed := clk.now().Sub(start)
	// Burst covers the first 2; the remaining 8 arrive at 2/s: 4s exactly.
	if elapsed != 4*time.Second {
		t.Fatalf("10 admissions at rate 2 burst 2 took %v of virtual time, want 4s", elapsed)
	}
	if got := l.AdmittedTo(addr); got != 10 {
		t.Fatalf("AdmittedTo = %d, want 10", got)
	}
	if l.Denied() < 8 {
		t.Fatalf("Denied = %d, want >= 8 (every post-burst admission waited)", l.Denied())
	}
	// The cap is per authority: a different address still has a full burst.
	other := netip.MustParseAddr("198.19.0.2")
	before := clk.now()
	if err := l.Admit(ctx, other); err != nil {
		t.Fatal(err)
	}
	if w := clk.now().Sub(before); w != 0 {
		t.Fatalf("fresh authority waited %v, want 0", w)
	}
}

func TestLimiterGlobalCapDominates(t *testing.T) {
	clk := newVClock()
	l := newLimiter(Config{AuthorityQPS: 100, MaxQPS: 1, now: clk.now, sleep: clk.sleep})
	ctx := context.Background()
	addrs := []netip.Addr{
		netip.MustParseAddr("198.19.0.1"),
		netip.MustParseAddr("198.19.0.2"),
		netip.MustParseAddr("198.19.0.3"),
	}
	start := clk.now()
	for i := 0; i < 6; i++ {
		if err := l.Admit(ctx, addrs[i%len(addrs)]); err != nil {
			t.Fatal(err)
		}
	}
	// Global bucket: 1 burst + 5 at 1/s = 5s, even though each authority
	// bucket never emptied.
	if elapsed := clk.now().Sub(start); elapsed != 5*time.Second {
		t.Fatalf("global cap allowed 6 admissions in %v, want 5s", elapsed)
	}
}

func TestLimiterAdmitHonorsContext(t *testing.T) {
	clk := newVClock()
	l := newLimiter(Config{AuthorityQPS: 0.001, now: clk.now, sleep: clk.sleep})
	addr := netip.MustParseAddr("198.19.0.9")
	if err := l.Admit(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Admit(ctx, addr); err == nil {
		t.Fatal("Admit with cancelled ctx and empty bucket returned nil")
	}
}

// TestLimiterInvariantUnderConcurrency drives the limiter from many
// goroutines over the virtual clock and asserts the bucket law on every
// authority: admitted ≤ burst + rate × elapsed.
func TestLimiterInvariantUnderConcurrency(t *testing.T) {
	clk := newVClock()
	const rate = 5.0
	const burst = rate // a bucket holds one second of tokens
	l := newLimiter(Config{AuthorityQPS: rate, now: clk.now, sleep: clk.sleep})
	addrs := []netip.Addr{
		netip.MustParseAddr("198.19.1.1"),
		netip.MustParseAddr("198.19.1.2"),
	}
	start := clk.now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Admit(context.Background(), addrs[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := clk.now().Sub(start).Seconds()
	for _, a := range addrs {
		got := float64(l.AdmittedTo(a))
		bound := burst + rate*elapsed + 1e-6
		if got > bound {
			t.Fatalf("authority %s admitted %.0f > bound %.2f (elapsed %.2fs)", a, got, bound, elapsed)
		}
	}
	if l.Admitted() != 400 {
		t.Fatalf("Admitted = %d, want 400", l.Admitted())
	}
}

// AdmittedTo returns how many attempts were admitted against one authority —
// the per-endpoint count the qps-cap proof asserts on.
func (l *Limiter) AdmittedTo(addr netip.Addr) uint64 {
	if l.authorityQPS <= 0 {
		return 0
	}
	sh := &l.shards[shardIndex(addr)]
	sh.mu.Lock()
	b, ok := sh.m[addr]
	sh.mu.Unlock()
	if !ok {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.admitted
}
