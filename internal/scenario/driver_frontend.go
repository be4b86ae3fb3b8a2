package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// errInjectedFailure is what a failed backend gate reports upstream.
var errInjectedFailure = errors.New("scenario: injected upstream failure")

// gateMode is the backend gate's switch position.
type gateMode int

const (
	gateOpen gateMode = iota // pass queries through
	gatePark                 // park callers until release
	gateFail                 // fail every exchange immediately
)

// gate sits between the frontend and its recursive upstream. Parking lets a
// scenario hold exactly K recursions in flight (to saturate MaxInflight and
// observe the shed path); failing makes every refresh attempt fail instantly
// (to walk the serve-stale → SERVFAIL → cached-error ladder).
type gate struct {
	inner forwarder.ResolverUpstream

	mu     sync.Mutex
	mode   gateMode
	ch     chan struct{} // closed on release; non-nil only in gatePark
	parked atomic.Int64
}

func (g *gate) state() (gateMode, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mode, g.ch
}

func (g *gate) set(mode gateMode) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.mode == gatePark && g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mode = mode
	if mode == gatePark {
		g.ch = make(chan struct{})
	}
}

// Profile passes the resolver's profile through, so the frontend serves
// stale data and marks cached errors as the scenario's profile does.
func (g *gate) Profile() *resolver.Profile { return g.inner.Profile() }

func (g *gate) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	return g.ExchangeWithOptions(ctx, qname, qtype, forwarder.Options{})
}

func (g *gate) ExchangeWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts forwarder.Options) (*dnswire.Message, error) {
	mode, ch := g.state()
	switch mode {
	case gateFail:
		return nil, errInjectedFailure
	case gatePark:
		g.parked.Add(1)
		select {
		case <-ch:
			g.parked.Add(-1)
		case <-ctx.Done():
			g.parked.Add(-1)
			return nil, ctx.Err()
		}
	}
	return g.inner.ExchangeWithOptions(ctx, qname, qtype, opts)
}

// frontendDriver runs scenarios against the caching serving layer: one
// vendor-profile resolver over the Table 4 testbed, wrapped by the frontend,
// with a controllable backend gate and a virtual serving clock.
type frontendDriver struct {
	*lab
	front *frontend.Frontend
	gate  *gate

	fillWG  sync.WaitGroup
	fills   []response
	filling bool
}

func (d *frontendDriver) setup(l *lab) error {
	d.lab = l
	if err := l.useTestbed(); err != nil {
		return err
	}
	prof, err := l.profile()
	if err != nil {
		return err
	}
	r := l.newResolver(prof)
	d.gate = &gate{inner: forwarder.ResolverUpstream{R: r}}
	d.front = frontend.New(d.gate, l.frontendConfig())

	r.RegisterMetrics(l.reg)
	d.front.RegisterMetrics(l.reg)
	return nil
}

func (d *frontendDriver) close() {
	// Unpark anything still held so fill goroutines cannot leak.
	d.gate.set(gateOpen)
	d.fillWG.Wait()
}

func (d *frontendDriver) act(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "advance":
		return d.advance(a.Args)
	case "block-backend":
		switch {
		case len(a.Args) == 0:
			d.gate.set(gatePark)
		case len(a.Args) == 1 && a.Args[0] == "fail":
			if d.filling {
				return fmt.Errorf("cannot fail the backend while fills are parked; release first")
			}
			d.gate.set(gateFail)
		default:
			return fmt.Errorf("block-backend takes nothing or \"fail\"")
		}
		return nil
	case "release-backend":
		d.gate.set(gateOpen)
		d.fillWG.Wait()
		// Fill responses surface here, in fill order, once all are settled.
		obs.responses = append(obs.responses, d.fills...)
		d.fills = nil
		d.filling = false
		return nil
	case "fill":
		return d.fill(ctx, a.Args)
	case "query":
		return d.query(ctx, a.Args, obs)
	}
	return ErrUnknownAction
}

// nameFor maps an action label to a query name: a testbed case's query, or a
// synthetic child of the parent zone (which resolves NXDOMAIN — fine for
// cache-filling and shed probes).
func (d *frontendDriver) nameFor(label string) dnswire.Name {
	if c, ok := d.byLabel[label]; ok {
		return c.Query
	}
	return testbed.ParentZone.Child(label)
}

// query sends n sequential client queries through the frontend and records
// each response.
func (d *frontendDriver) query(ctx context.Context, args []string, obs *observations) error {
	label, n, err := queryArgs(args)
	if err != nil {
		return err
	}
	name := d.nameFor(label)
	for i := 0; i < n; i++ {
		resp, err := d.front.HandleDNS(ctx, d.newQuery(name))
		if err != nil {
			return err
		}
		obs.record(fmt.Sprintf("%s#%d", label, i+1), resp)
	}
	return nil
}

// fill launches K concurrent client queries for distinct synthetic names
// while the backend gate is parked, then waits until every one is either
// parked inside the gate (holding an in-flight slot) or already answered
// (shed). Their responses are recorded by the release-backend action, in
// fill order, so reports stay byte-stable despite the concurrency.
func (d *frontendDriver) fill(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("fill needs n=K")
	}
	k, err := countArg(args[0])
	if err != nil {
		return err
	}
	if mode, _ := d.gate.state(); mode != gatePark {
		return fmt.Errorf("fill requires a parked backend (block-backend first)")
	}
	if d.filling {
		return fmt.Errorf("a fill is already in flight")
	}
	d.filling = true

	base := len(d.fills)
	d.fills = append(d.fills, make([]response, k)...)
	var done atomic.Int64
	parkedBefore := d.gate.parked.Load()
	for i := 0; i < k; i++ {
		label := fmt.Sprintf("fill-%d", base+i)
		q := d.newQuery(d.nameFor(label))
		slot := &d.fills[base+i]
		d.fillWG.Add(1)
		go func() {
			defer d.fillWG.Done()
			defer done.Add(1)
			resp, err := d.front.HandleDNS(ctx, q)
			if err != nil {
				resp = nil
			}
			*slot = answer(label, resp)
		}()
	}
	// Settle: each query is either holding an in-flight slot at the gate or
	// has completed (shed / stale-rescued). Only then is the frontend's
	// saturation state deterministic for the queries that follow.
	for d.gate.parked.Load()-parkedBefore+done.Load() < int64(k) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}
