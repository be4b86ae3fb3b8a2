package population_test

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

// TestMaterializeFanOut builds one 3,030-domain world serially (GOMAXPROCS 1)
// and one on four processors and checks that the fan-out changed nothing a
// scan or a zone can see: equal per-code counts and per-domain RCODE + EDE
// code sets from a 32-worker scan (EXTRA-TEXT carries key tags, which are
// drawn at random, so it is left out), keys of the algorithm the serial
// rotation assigns, and a Lookup that finds every domain and nothing else.
// It runs under -short so that the race detector sees the fan-out.
func TestMaterializeFanOut(t *testing.T) {
	var codes []map[uint16]int
	var outcomes []map[dnswire.Name]string
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		w := tagDistinctWorld(t, population.Config{TotalDomains: 3030, Seed: 42})
		runtime.GOMAXPROCS(prev)

		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			checkChildKeys(t, w.Pop)
			checkLookup(t, w)
		})
		agg, per := scanOutcomes(w)
		codes = append(codes, agg)
		outcomes = append(outcomes, per)
	}
	if fmt.Sprint(codes[0]) != fmt.Sprint(codes[1]) {
		t.Errorf("code counts differ: serial %v, fanned out %v", codes[0], codes[1])
	}
	if len(outcomes[0]) != len(outcomes[1]) {
		t.Fatalf("scanned %d vs %d domains", len(outcomes[0]), len(outcomes[1]))
	}
	for name, serial := range outcomes[0] {
		if fanned := outcomes[1][name]; fanned != serial {
			t.Errorf("%s: serial %s, fanned out %s", name, serial, fanned)
		}
	}
}

// tagDistinctWorld materializes cfg's population, drawing the keys again while
// two keys of one zone share a key tag. The validator tries every key a tag
// names (dnssec.CheckRRset), so a clash does not change whether an answer
// validates; it changes the EXTRA-TEXT that names a key by its tag, and
// whether a retired key's DS tag names a published key. Either way such a
// world's answers would depend on the dice, not the seed.
func tagDistinctWorld(t *testing.T, cfg population.Config) *population.Wild {
	t.Helper()
	pop := population.Generate(cfg)
	for range 20 {
		w, err := population.Materialize(pop)
		if err != nil {
			t.Fatal(err)
		}
		if tagsDistinct(t, w) {
			return w
		}
	}
	t.Fatal("20 worlds in a row held a key-tag clash")
	return nil
}

func tagsDistinct(t *testing.T, w *population.Wild) bool {
	t.Helper()
	distinct := func(tags []uint16) bool {
		slices.Sort(tags)
		return len(slices.Compact(tags)) == len(tags)
	}
	for _, d := range w.Pop.Domains {
		if d.Keys == nil {
			continue
		}
		tags := []uint16{d.Keys.KSK.KeyTag(), d.Keys.ZSK.KeyTag()}
		if d.Class == population.ClassDNSKEYMismatch {
			tags = append(tags, d.Keys.DS.KeyTag) // the retired key's tag must name no published key
		}
		if !distinct(tags) {
			return false
		}
	}
	// The root's and the TLDs' keys are private to their servers: ask.
	zones := map[dnswire.Name]netip.Addr{dnswire.Root: w.Roots[0]}
	for _, tld := range w.Pop.TLDs {
		zones[tld.Name] = tld.Addr
	}
	for zone, at := range zones {
		resp, _, err := w.Net.Exchange(context.Background(), at, dnswire.NewQuery(1, zone, dnswire.TypeDNSKEY))
		if err != nil {
			t.Fatalf("DNSKEY %s: %v", zone, err)
		}
		var tags []uint16
		for _, rr := range resp.Answer {
			if k, ok := rr.Data.(dnswire.DNSKEY); ok {
				tags = append(tags, k.KeyTag())
			}
		}
		if !distinct(tags) {
			return false
		}
	}
	return true
}

// checkChildKeys walks the domains in order, as the serial build did, and
// checks each signed one holds its own KSK and ZSK of the algorithm the
// unsupported-algorithm rotation (GOST, Ed448, RSA-512) assigns by position,
// with the DS its class calls for.
func checkChildKeys(t *testing.T, pop *population.Population) {
	t.Helper()
	rotation := []dnssec.Algorithm{dnssec.AlgECCGOST, dnssec.AlgED448, dnssec.AlgRSASHA256}
	unsupported := 0
	published := map[string]bool{}
	for _, d := range pop.Domains {
		var want dnssec.Algorithm
		switch d.Class {
		case population.ClassHealthySigned, population.ClassSigExpired, population.ClassSigNotYet,
			population.ClassDNSKEYMismatch, population.ClassUnsupportedDigest:
			want = dnssec.AlgED25519
		case population.ClassUnsupportedAlg:
			want = rotation[unsupported%len(rotation)]
			unsupported++
		}
		if want == 0 {
			if d.Keys != nil {
				t.Errorf("%s (%s) holds keys", d.Name, d.Class)
			}
			continue
		}
		if d.Keys == nil {
			t.Errorf("%s (%s) holds no keys", d.Name, d.Class)
			continue
		}
		for _, k := range []*dnssec.KeyPair{d.Keys.KSK, d.Keys.ZSK} {
			pub := string(k.DNSKEY().PublicKey)
			bits := dnssec.RSAKeyBits(k.DNSKEY().PublicKey)
			if k.Alg != want || published[pub] || (want == dnssec.AlgRSASHA256 && bits != 512) {
				t.Errorf("%s (%s): key alg %s, %d bits, shared %t; want its own %s key", d.Name, d.Class, k.Alg, bits, published[pub], want)
			}
			published[pub] = true
		}
		if !d.Keys.KSK.DNSKEY().IsSEP() || d.Keys.ZSK.DNSKEY().IsSEP() {
			t.Errorf("%s: KSK/ZSK flags %d/%d", d.Name, d.Keys.KSK.Flags, d.Keys.ZSK.Flags)
		}
		if matches := dnssec.MatchesDS(d.Name, d.Keys.KSK.DNSKEY(), d.Keys.DS); matches == (d.Class == population.ClassDNSKEYMismatch) {
			t.Errorf("%s (%s): DS matches the KSK: %t", d.Name, d.Class, matches)
		}
	}
	if unsupported == 0 {
		t.Error("no unsupported-algorithm domain: the rotation went unchecked")
	}
}

// checkLookup round-trips every domain and refuses names that are not one:
// a foreign name, a real id under the wrong TLD, an id padded to the wrong
// width, an id past the end, and a host below a domain.
func checkLookup(t *testing.T, w *population.Wild) {
	t.Helper()
	for _, d := range w.Pop.Domains {
		if got, ok := w.Pop.Lookup(d.Name); !ok || got != d {
			t.Fatalf("Lookup(%s) = %v, %t", d.Name, got, ok)
		}
	}
	for _, name := range []string{"absent.zzz.", "d000001.zzz.", "d0000001.com.", "d999999999.com.", "ns1.d000001.com."} {
		if d, ok := w.Pop.Lookup(dnswire.MustName(name)); ok || d != nil {
			t.Errorf("Lookup(%s) = %v, %t", name, d, ok)
		}
	}
}

// scanOutcomes runs the §4 scan at 32 workers and returns its per-code counts
// and each domain's RCODE and sorted EDE codes.
func scanOutcomes(w *population.Wild) (map[uint16]int, map[dnswire.Name]string) {
	ctx := context.Background()
	s := scan.WarmScanner(ctx, w, resolver.ProfileCloudflare(), 32, nil)
	agg := scan.NewAggregate()
	per := make(map[dnswire.Name]string, len(w.Pop.Domains))
	s.ScanStream(ctx, w.Pop.Names(), func(r scan.Result) {
		agg.Add(r)
		per[r.Domain] = fmt.Sprint(r.RCode, slices.Sorted(slices.Values(r.Codes)))
	})
	return agg.CodeCounts, per
}
