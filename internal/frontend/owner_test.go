package frontend_test

import (
	"context"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// wildWorld materializes a fresh world over n requested domains.
func wildWorld(t *testing.T, n int) *population.Wild {
	t.Helper()
	w, err := population.Materialize(population.Generate(population.Config{TotalDomains: n, Seed: 20230515}))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// resolverOn returns a fresh resolver over w, on w's clock.
func resolverOn(w *population.Wild) *resolver.Resolver {
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	return r
}

// fronted puts a frontend on the world's clock in front of r.
func fronted(w *population.Wild, r *resolver.Resolver) *frontend.Frontend {
	return frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{Now: w.Now})
}

// storingUpstream hides ResolverUpstream's ExchangeWithOptions, so a frontend
// over it cannot ask for CallerCaches and its resolver stores every answer
// too: the serving stack as it was before the frontend owned the answers.
type storingUpstream struct{ forwarder.Upstream }

// question is one client question: a name, a type and the client's DO bit.
type question struct {
	name  dnswire.Name
	qtype dnswire.Type
	do    bool
}

// outcome is what one client question cost and got.
type outcome struct {
	queries uint64
	rcode   dnswire.RCode
	codes   []uint16 // sorted
	answers int
}

// ask sends each question once, in order, to h and records what r spent on
// it.
func ask(t *testing.T, h netsim.Handler, r *resolver.Resolver, qs []question) []outcome {
	t.Helper()
	out := make([]outcome, len(qs))
	for i, q := range qs {
		before := r.QueryCount.Load()
		m := dnswire.NewQuery(uint16(i), q.name, q.qtype)
		m.OPT.DO = q.do
		resp, err := h.HandleDNS(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		codes := resp.EDECodes()
		slices.Sort(codes)
		out[i] = outcome{r.QueryCount.Load() - before, resp.RCode, codes, len(resp.Answer)}
	}
	return out
}

// apexA is one DO=1 type-A question per name.
func apexA(names []dnswire.Name) []question {
	qs := make([]question, len(names))
	for i, name := range names {
		qs[i] = question{name, dnswire.TypeA, true}
	}
	return qs
}

func domainNames(pop *population.Population) []dnswire.Name {
	names := make([]dnswire.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}
	return names
}

// TestFrontedResolverStoresNoAnswers is one answer, one owner: a frontend
// over a fresh resolver answers every domain of a population once, and
// afterwards the frontend holds one entry per name while the resolver holds
// no answer — the same at 3,030 domains as at 30,300. Zone cuts are shared
// infrastructure, kept as before: the resolver holds as many as a standalone
// twin over the same world does. The same names through forwarder.New (a
// resolver serving on its own) leave one answer per name in that resolver.
func TestFrontedResolverStoresNoAnswers(t *testing.T) {
	sizes := []int{3030, 30300}
	if testing.Short() {
		sizes = sizes[:1] // the race detector makes the large pass slow
	}
	for _, n := range sizes {
		w := wildWorld(t, n)
		r, r2 := resolverOn(w), resolverOn(w)
		names := domainNames(w.Pop)
		fe := fronted(w, r)
		ask(t, fe, r, apexA(names))
		ask(t, forwarder.New(forwarder.ResolverUpstream{R: r2}), r2, apexA(names))

		t.Logf("%d domains: fronted, frontend %d entries, resolver %d answers and %d cuts; standalone, resolver %d answers and %d cuts",
			len(names), fe.CacheLen(), r.Cache.Len(), r.Cache.DelegationLen(), r2.Cache.Len(), r2.Cache.DelegationLen())
		if fe.CacheLen() != len(names) || r.Cache.Len() != 0 {
			t.Errorf("%d domains fronted: frontend %d entries, resolver %d answers; want %d and 0",
				len(names), fe.CacheLen(), r.Cache.Len(), len(names))
		}
		if r2.Cache.Len() != len(names) {
			t.Errorf("%d domains standalone: resolver holds %d answers, want one per name", len(names), r2.Cache.Len())
		}
		if r.Cache.DelegationLen() != r2.Cache.DelegationLen() {
			t.Errorf("%d domains: %d cuts fronted, %d standalone; cuts are shared either way",
				len(names), r.Cache.DelegationLen(), r2.Cache.DelegationLen())
		}
	}
}

// TestFrontedResolverSendsTheSameQueries: who keeps the answer changes
// nothing a client or an authority sees. Two fresh resolvers over one world
// run the scan protocol — warm the stale class at ScanTime, set the clock to
// MeasureTime, ask every domain once — one through a frontend and one
// through forwarder.New, and every name must get the same RCODE and EDE set
// for the same upstream queries. The stale class is the frontend serving
// stale where the standalone resolver does it itself; both must say why the
// live attempt failed.
func TestFrontedResolverSendsTheSameQueries(t *testing.T) {
	w := wildWorld(t, 3030)
	pass := func(front bool) []outcome {
		r := resolverOn(w)
		var h netsim.Handler = forwarder.New(forwarder.ResolverUpstream{R: r})
		if front {
			h = fronted(w, r)
		}
		w.SetClock(population.ScanTime)
		ask(t, h, r, apexA(w.WarmupDomains()))
		w.SetClock(population.MeasureTime)
		return ask(t, h, r, apexA(domainNames(w.Pop)))
	}
	standalone := pass(false)
	front := pass(true)

	perClass := make(map[population.Class]uint64)
	for i, d := range w.Pop.Domains {
		s, f := standalone[i], front[i]
		if s.queries != f.queries || s.rcode != f.rcode || !slices.Equal(s.codes, f.codes) {
			t.Errorf("%s (%s): %d queries, %s %v standalone; %d queries, %s %v fronted",
				d.Name, d.Class, s.queries, s.rcode, s.codes, f.queries, f.rcode, f.codes)
		}
		perClass[d.Class] += f.queries
	}
	for _, class := range []population.Class{population.ClassIterLoop, population.ClassLameRefused, population.ClassStale} {
		if perClass[class] == 0 {
			t.Errorf("the population has no %s domain to compare", class)
		}
		t.Logf("%s: %d upstream queries on both sides", class, perClass[class])
	}
}

// TestFrontedMixedTrafficCostsWhatStoringDid is the traffic a browser sends,
// not one type-A question per apex: for every domain, A, AAAA, A again from
// a DO=0 client, then the www name from both kinds of client, and the whole
// round again once the 300 s answers have expired. One world serves it
// through a frontend whose resolver stores no answers and through one whose
// resolver stores them all (storingUpstream), and every question must
// get the same RCODE, EDE set and answer count for the same upstream
// queries: the frontend's cache stands in for every answer-cache hit the
// resolver used to serve. The resolver behind the first still holds no
// answer and the same zone cuts as the second.
//
// One thing the storing stack gets wrong is left out: its frontend stores
// the resolver's stale reply as fresh. So the stale class, the one whose
// authorities go dark (at population.MeasureTime), is not asked here:
// TestStaleIsNotRefilledAsFresh and TestFrontedResolverSendsTheSameQueries
// cover it.
func TestFrontedMixedTrafficCostsWhatStoringDid(t *testing.T) {
	w := wildWorld(t, 3030)
	var domains []*population.Domain
	pass := func(storing bool) ([]outcome, *resolver.Resolver) {
		r := resolverOn(w)
		var up forwarder.Upstream = forwarder.ResolverUpstream{R: r}
		if storing {
			up = storingUpstream{up}
		}
		fe := frontend.New(up, frontend.Config{Now: w.Now})
		var qs []question
		domains = domains[:0]
		for _, d := range w.Pop.Domains {
			if d.Class == population.ClassStale {
				continue
			}
			domains = append(domains, d)
			www := d.Name.Child("www")
			qs = append(qs,
				question{d.Name, dnswire.TypeA, true},
				question{d.Name, dnswire.TypeAAAA, true},
				question{d.Name, dnswire.TypeA, false},
				question{www, dnswire.TypeA, true},
				question{www, dnswire.TypeA, false})
		}
		w.SetClock(population.ScanTime)
		out := ask(t, fe, r, qs)
		w.SetClock(population.ScanTime + 10*60)
		return append(out, ask(t, fe, r, qs)...), r
	}
	storing, rs := pass(true)
	front, rf := pass(false)

	var total [2]uint64
	perStep := len(front) / (2 * len(domains))
	for i := range front {
		s, f := storing[i], front[i]
		total[0] += s.queries
		total[1] += f.queries
		if s.queries != f.queries || s.rcode != f.rcode || !slices.Equal(s.codes, f.codes) || s.answers != f.answers {
			d := domains[i/perStep%len(domains)]
			t.Errorf("%s (%s) question %d: %d queries, %s %v, %d answers storing; %d queries, %s %v, %d answers fronted",
				d.Name, d.Class, i%perStep, s.queries, s.rcode, s.codes, s.answers, f.queries, f.rcode, f.codes, f.answers)
		}
	}
	t.Logf("%d questions: %d upstream queries storing, %d fronted; resolver answers %d storing, %d fronted; cuts %d and %d",
		len(front), total[0], total[1], rs.Cache.Len(), rf.Cache.Len(), rs.Cache.DelegationLen(), rf.Cache.DelegationLen())
	if rf.Cache.Len() != 0 || rf.Cache.DelegationLen() != rs.Cache.DelegationLen() {
		t.Errorf("fronted resolver: %d answers and %d cuts; want 0 and the storing twin's %d cuts",
			rf.Cache.Len(), rf.Cache.DelegationLen(), rs.Cache.DelegationLen())
	}
}

// TestStaleIsNotRefilledAsFresh: when the frontend's entry has expired and
// live resolution fails, the frontend serves its own entry stale, with the
// stale TTL and the failed attempt's diagnosis, and does not store it again.
// Once the authorities are back, the next query resolves fresh; a stale
// reply must not be served for a full TTL as if it were an answer. Both the
// frontend's and the resolver's clocks advance.
func TestStaleIsNotRefilledAsFresh(t *testing.T) {
	w := wildWorld(t, 3030)
	r := resolverOn(w)
	var name dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.Class == population.ClassHealthy {
			name = d.Name
			break
		}
	}
	fe := fronted(w, r)
	query := func() *dnswire.Message {
		t.Helper()
		resp, err := fe.HandleDNS(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	stale := func(m *dnswire.Message) bool { return slices.Contains(m.EDECodes(), uint16(ede.CodeStaleAnswer)) }

	if resp := query(); resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 || stale(resp) {
		t.Fatalf("prime: %s, %d answers, EDEs %v", resp.RCode, len(resp.Answer), resp.EDECodes())
	}

	// The 300 s answer expires everywhere; the authorities go silent.
	w.SetClock(population.ScanTime + 10*60)
	w.Net.SetFaults(netsim.NewFaultPlan(1, netsim.FaultProfile{Loss: 1}))
	resp := query()
	if resp.RCode != dnswire.RCodeNoError || !stale(resp) ||
		!slices.Contains(resp.EDECodes(), uint16(ede.CodeNoReachableAuthority)) {
		t.Fatalf("outage: %s, EDEs %v; want NOERROR with EDE 3 and 22", resp.RCode, resp.EDECodes())
	}
	for _, rr := range resp.Answer {
		if rr.TTL != 30 {
			t.Errorf("outage: stale record TTL %d, want the frontend's stale TTL 30", rr.TTL)
		}
	}

	// The authorities recover a minute later, well inside the record's TTL.
	w.Net.SetFaults(nil)
	w.SetClock(population.ScanTime + 11*60)
	if resp := query(); resp.RCode != dnswire.RCodeNoError || stale(resp) {
		t.Errorf("recovered: %s, EDEs %v; want a fresh NOERROR without EDE 3", resp.RCode, resp.EDECodes())
	}
	if s := fe.Metrics().Snapshot(); s.StaleServes != 1 || s.Misses != 3 {
		t.Errorf("frontend: %d stale serves, %d misses; want 1 and 3 (prime, outage, recovery)", s.StaleServes, s.Misses)
	}
}
