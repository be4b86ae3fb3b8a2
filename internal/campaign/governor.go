package campaign

import (
	"context"
	"sync"
)

// Governor adapts the scan's effective concurrency to observed transport
// health, ZDNS-style: a resizable semaphore sits between the scanner's
// workers and the resolver (scan.Scanner.Gate), and an AIMD control loop
// moves its capacity. When the timeout+SERVFAIL rate over an observation
// window crosses highWater the capacity halves (multiplicative decrease);
// while it stays under lowWater the capacity creeps back up by Step
// (additive increase). Workers themselves are never torn down — excess ones
// just block in Acquire, so recovery is instant when capacity returns.
type Governor struct {
	mu   sync.Mutex
	cond *sync.Cond

	capacity int
	inUse    int

	min, max int
	step     int

	// lastAttempts/lastFailures remember the previous Observe sample so each
	// call works on the delta — the rate over the window, not the lifetime.
	lastAttempts uint64
	lastFailures uint64
}

// The failure rates past which the governor halves its capacity, and under
// which it grows it back.
const (
	highWater = 0.20
	lowWater  = 0.05
)

// GovernorConfig bounds the governor. Min and Max bracket the concurrency
// (Max is typically the worker count); Step defaults to max(1, Max/16).
type GovernorConfig struct {
	Min, Max int
	Step     int
}

// NewGovernor builds a governor starting at full capacity.
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.Max <= 0 {
		cfg.Max = 32
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Step <= 0 {
		cfg.Step = max(1, cfg.Max/16)
	}
	g := &Governor{
		capacity: cfg.Max,
		min:      cfg.Min,
		max:      cfg.Max,
		step:     cfg.Step,
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire blocks until a concurrency slot is free. If ctx ends first it
// returns without a slot being available — the caller's next resolver call
// observes the cancellation itself, so the scan drains rather than deadlocks.
func (g *Governor) Acquire(ctx context.Context) {
	// Broadcasting under the lock serializes with the waiter's ctx check:
	// a waiter is either still holding the lock (and will see ctx done) or
	// already parked in Wait (and will be woken).
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inUse >= g.capacity && ctx.Err() == nil {
		g.cond.Wait()
	}
	g.inUse++
}

// Release returns a slot.
func (g *Governor) Release() {
	g.mu.Lock()
	g.inUse--
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Observe feeds one sample of cumulative transport counters (total query
// attempts and total timeout+SERVFAIL events since the resolver started) and
// applies one AIMD adjustment based on the failure rate since the previous
// call. It returns the window's failure rate and the capacity now in force.
func (g *Governor) Observe(attempts, failures uint64) (rate float64, capacity int) {
	g.mu.Lock()
	defer g.mu.Unlock()

	dA := attempts - g.lastAttempts
	dF := failures - g.lastFailures
	g.lastAttempts = attempts
	g.lastFailures = failures
	if dA == 0 {
		return 0, g.capacity
	}
	rate = float64(dF) / float64(dA)
	switch {
	case rate > highWater:
		g.capacity /= 2
		if g.capacity < g.min {
			g.capacity = g.min
		}
	case rate < lowWater:
		g.capacity += g.step
		if g.capacity > g.max {
			g.capacity = g.max
		}
		g.cond.Broadcast()
	}
	return rate, g.capacity
}

// Concurrency returns the capacity currently in force (the
// edelab_campaign_governor_concurrency gauge).
func (g *Governor) Concurrency() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.capacity
}
