package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cutsAbove returns the fresh cuts the Cache holds at or above each of names,
// by zone.
func (c *Cache) cutsAbove(names []dnswire.Name, now time.Time) map[dnswire.Name]*cutBody {
	cuts := make(map[dnswire.Name]*cutBody)
	for _, n := range names {
		for ; !n.IsRoot(); n = n.Parent() {
			if body, fresh, _ := c.cuts.Get(n, now.UnixNano()); fresh {
				cuts[n] = body
			}
		}
	}
	return cuts
}

// bodyCount is the number of distinct bodies the cuts at or above names
// point to.
func (c *Cache) bodyCount(names []dnswire.Name, now time.Time) int {
	seen := make(map[*cutBody]bool)
	for _, body := range c.cutsAbove(names, now) {
		seen[body] = true
	}
	return len(seen)
}

// TestUnsignedCutsShareOneBody: a resolver behind a frontend answers every
// domain of a population once, and every two unsigned cuts that say the
// same thing — servers, conditions, secure — point to one body. The
// world's domains sit behind 16 providers and a few broken nameservers, so
// the unsigned cuts are many and their bodies few. (Every TLD cut carries a
// DS set, and so a body of its own.)
func TestUnsignedCutsShareOneBody(t *testing.T) {
	w, r := wildResolver(t, 3030, false)
	pop := w.Pop
	for _, d := range pop.Domains {
		r.ResolveWithOptions(context.Background(), d.Name, dnswire.TypeA, QueryOptions{CallerCaches: true})
	}
	names := make([]dnswire.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}
	unsigned, bodies := 0, make(map[*cutBody]bool)
	byContent := make(map[string]*cutBody)
	for zone, body := range r.Cache.cutsAbove(names, w.Now()) {
		if body.ds != nil {
			continue
		}
		unsigned++
		bodies[body] = true
		k := fmt.Sprint(body.servers, body.conds, body.secure)
		if have, ok := byContent[k]; ok && have != body {
			t.Errorf("%s has a body of its own for %s", zone, k)
		}
		byContent[k] = body
	}
	t.Logf("%d domains: %d cuts, %d of them unsigned over %d bodies; %d bodies in all",
		len(pop.Domains), r.Cache.DelegationLen(), unsigned, len(bodies), r.Cache.bodyCount(names, w.Now()))
	if len(bodies)*4 > unsigned {
		t.Errorf("%d unsigned cuts over %d bodies; want at least four cuts a body", unsigned, len(bodies))
	}
}

// TestCutsThatDifferNeverShare: cuts share a body only when they say the
// same thing. A different DS set, condition, condition detail,
// server or server order each keep a body of their own, and every cut reads
// back what was filed for it. Two cuts with one DS set do not share either:
// a DS set is a zone's own.
func TestCutsThatDifferNeverShare(t *testing.T) {
	a, b := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	ds1 := []dnswire.DS{{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: []byte{1}}}
	ds2 := []dnswire.DS{{KeyTag: 2, Algorithm: 13, DigestType: 2, Digest: []byte{2}}}
	stand := []condRecord{{cond: ConditionStandbyKSKUnsigned, detail: "tag 1"}}
	cases := []struct {
		name   string
		x, y   cutBody
		dx, dy []dnswire.DS
		shared bool
	}{
		{"same servers, same conditions", cutBody{servers: []netip.Addr{a, b}, conds: stand}, cutBody{servers: []netip.Addr{a, b}, conds: stand}, nil, nil, true},
		{"server order", cutBody{servers: []netip.Addr{a, b}}, cutBody{servers: []netip.Addr{b, a}}, nil, nil, false},
		{"one server more", cutBody{servers: []netip.Addr{a}}, cutBody{servers: []netip.Addr{a, b}}, nil, nil, false},
		{"conditions", cutBody{servers: []netip.Addr{a}}, cutBody{servers: []netip.Addr{a}, conds: stand}, nil, nil, false},
		{"condition detail", cutBody{servers: []netip.Addr{a}, conds: stand}, cutBody{servers: []netip.Addr{a}, conds: []condRecord{{cond: ConditionStandbyKSKUnsigned, detail: "tag 2"}}}, nil, nil, false},
		{"secure", cutBody{servers: []netip.Addr{a}}, cutBody{servers: []netip.Addr{a}, secure: true}, nil, nil, false},
		{"DS sets", cutBody{servers: []netip.Addr{a}, secure: true}, cutBody{servers: []netip.Addr{a}, secure: true}, ds1, ds2, false},
		{"one DS set", cutBody{servers: []netip.Addr{a}, secure: true}, cutBody{servers: []netip.Addr{a}, secure: true}, ds1, ds1, false},
	}
	now := time.Unix(tNow, 0)
	zones := []dnswire.Name{dnswire.MustName("z0.example."), dnswire.MustName("z1.example.")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Resolver{Cache: NewCache()}
			st := &resolution{r: r}
			st.storeCut(zones[0], tc.x, tc.dx, now, time.Hour)
			st.storeCut(zones[1], tc.y, tc.dy, now, time.Hour)
			_, x := r.Cache.getDelegation(zones[0], now)
			_, y := r.Cache.getDelegation(zones[1], now)
			if (x == y) != tc.shared {
				t.Fatalf("shared = %v, want %v", x == y, tc.shared)
			}
			for _, c := range []struct {
				got  *cutBody
				want cutBody
				ds   []dnswire.DS
			}{{x, tc.x, tc.dx}, {y, tc.y, tc.dy}} {
				if !c.got.says(&c.want) || fmt.Sprint(c.got.dsSet()) != fmt.Sprint(c.ds) {
					t.Errorf("read back %v %v %v DS %v, filed %v %v %v DS %v", c.got.servers, c.got.conds, c.got.secure, c.got.dsSet(),
						c.want.servers, c.want.conds, c.want.secure, c.ds)
				}
			}
		})
	}
}

// TestWalkCondsCopiesOnlyToAdd: a walk step that observed nothing new
// returns the inherited conditions themselves, so sibling cuts can share a
// body; one that observed more copies them first, so a filed body's
// conditions are never written through, even where their slice has room.
func TestWalkCondsCopiesOnlyToAdd(t *testing.T) {
	inherited := make([]condRecord, 1, 4)
	inherited[0] = condRecord{cond: ConditionStandbyKSKUnsigned, detail: "tag 1"}
	if out := walkConds(inherited, []Condition{ConditionStandbyKSKUnsigned}, nil); len(out) != 1 || &out[0] != &inherited[0] {
		t.Errorf("nothing new observed: got %v, a copy; want the inherited slice itself", out)
	}
	out := walkConds(inherited, []Condition{ConditionStandbyKSKUnsigned, ConditionInsecure}, nil)
	if len(out) != 2 || out[1].cond != ConditionInsecure || &out[0] == &inherited[0] {
		t.Errorf("one new condition: got %v, want a copy of the inherited one plus it", out)
	}
	if spare := inherited[:2][1]; spare != (condRecord{}) {
		t.Errorf("walkConds wrote %v into the inherited slice's spare room", spare)
	}
}

// TestFrontedResolverCutsCostLittle is the per-zone price of a serving
// resolver: a resolver behind a frontend (CallerCaches, so it stores no
// answer) asks every other domain of a 101,000-domain world, then the rest,
// which file one new cut each under TLDs already known. The live heap the
// second half adds, over the cuts it adds, is the price of a cut: its name,
// its expiry and a pointer, about 72 bytes. It was 196 when every cut was its
// own object graph (E32). A smaller world will not do: at 30,300 domains the
// second half is where all 64 shard maps double, which alone costs 96 bytes
// a cut.
func TestFrontedResolverCutsCostLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("a 101,000-domain world") // and the race detector's heap is not the product's
	}
	w, r := wildResolver(t, 101000, false)
	pop := w.Pop
	ask := func(names []dnswire.Name) {
		for _, n := range names {
			r.ResolveWithOptions(context.Background(), n, dnswire.TypeA, QueryOptions{CallerCaches: true})
		}
	}
	var halves [2][]dnswire.Name
	for i, d := range pop.Domains {
		halves[i%2] = append(halves[i%2], d.Name)
	}
	ask(halves[0])
	cuts0, heap0 := r.Cache.DelegationLen(), liveHeap()
	ask(halves[1])
	cuts1, heap1 := r.Cache.DelegationLen(), liveHeap()
	perCut := float64(int64(heap1)-int64(heap0)) / float64(cuts1-cuts0)
	t.Logf("second half: cuts %d → %d over %d bodies, live heap %.1f → %.1f MB: %.0f B a cut",
		cuts0, cuts1, r.Cache.bodyCount(append(halves[0], halves[1]...), w.Now()), float64(heap0)/1e6, float64(heap1)/1e6, perCut)
	if perCut > 96 {
		t.Errorf("a fronted resolver retains %.0f B per added cut, want at most 96", perCut)
	}
	runtime.KeepAlive(halves)
	runtime.KeepAlive(r)
	runtime.KeepAlive(pop)
}

// TestDistinctServerSetsCostNoMore is the worst case for interning: 10,000
// zones, each behind its own nameserver, so no two cuts share a body and
// the intern table saves nothing. A cut must still cost no more than when
// each was its own object graph: 178 bytes, name included (E32).
func TestDistinctServerSetsCostNoMore(t *testing.T) {
	const zones = 10000
	c := NewCache()
	now := time.Unix(tNow, 0)
	names := make([]dnswire.Name, zones)
	for i := range names {
		names[i] = dnswire.MustName(fmt.Sprintf("z%d.example.", i))
	}
	before := liveHeap()
	for i, zone := range names {
		servers := []netip.Addr{netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}
		c.putDelegation(zone, cutBody{servers: servers}, now, time.Hour)
	}
	perCut := float64(int64(liveHeap())-int64(before)) / zones
	t.Logf("%d cuts over %d bodies: %.0f B a cut", c.DelegationLen(), c.bodyCount(names, now), perCut)
	if perCut > 178 {
		t.Errorf("a cut behind its own nameserver costs %.0f B, more than the 178 B it cost unshared", perCut)
	}
	runtime.KeepAlive(c)
}
