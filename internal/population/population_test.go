package population

import (
	"testing"
)

func smallConfig() Config {
	// 1:100,000 scale — 3,030 domains; fast enough for unit tests while
	// still exercising every class.
	return Config{TotalDomains: 3030, Seed: 42}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Domains) != len(b.Domains) {
		t.Fatalf("domain counts differ: %d vs %d", len(a.Domains), len(b.Domains))
	}
	for i := range a.Domains {
		if a.Domains[i].Name != b.Domains[i].Name || a.Domains[i].Class != b.Domains[i].Class {
			t.Fatalf("domain %d differs: %v/%v vs %v/%v", i,
				a.Domains[i].Name, a.Domains[i].Class, b.Domains[i].Name, b.Domains[i].Class)
		}
	}
}

func TestEveryClassPresent(t *testing.T) {
	p := Generate(smallConfig())
	have := make(map[Class]int)
	for _, d := range p.Domains {
		have[d.Class]++
	}
	for c := ClassHealthy; c < numClasses; c++ {
		if have[c] == 0 {
			t.Errorf("class %s absent from population", c)
		}
	}
}

func TestClassQuotaScaling(t *testing.T) {
	scale := 1.0 / 1000
	if got := ClassQuota(ClassLameRefused, scale); got < 9000 || got > 11000 {
		t.Errorf("lame-refused quota = %d", got)
	}
	// Tiny classes floor at 1.
	if got := ClassQuota(ClassIterLoop, scale); got != 1 {
		t.Errorf("iter-loop quota = %d, want 1", got)
	}
	if got := ClassQuota(ClassHealthy, scale); got != 0 {
		t.Errorf("healthy quota = %d, want 0", got)
	}
}

func TestOverallEDERateNearPaper(t *testing.T) {
	p := Generate(Config{TotalDomains: 30300, Seed: 7})
	ede := 0
	for _, d := range p.Domains {
		switch d.Class {
		case ClassHealthy, ClassHealthySigned:
		default:
			ede++
		}
	}
	rate := float64(ede) / float64(len(p.Domains))
	// Paper: 17.7M / 303M = 5.84%.
	if rate < 0.045 || rate > 0.075 {
		t.Errorf("EDE class rate = %.4f, want ~0.058", rate)
	}
}

func TestTLDStructure(t *testing.T) {
	p := Generate(smallConfig())
	if len(p.TLDs) != 1475 {
		t.Fatalf("TLD count = %d", len(p.TLDs))
	}
	var cc, g, clean, allBroken, standby int
	for _, tld := range p.TLDs {
		if tld.CC {
			cc++
		} else {
			g++
		}
		if tld.Clean {
			clean++
		}
		if tld.AllBroken {
			allBroken++
		}
		if tld.Standby {
			standby++
		}
	}
	if cc != 315 || g != 1160 {
		t.Errorf("cc=%d g=%d", cc, g)
	}
	if allBroken != 13 {
		t.Errorf("allBroken TLDs = %d, want 13 (11 gTLD + 2 ccTLD)", allBroken)
	}
	if standby != 24 {
		t.Errorf("standby TLDs = %d, want 24 (2 ccTLD + 22 suffixes)", standby)
	}
	if clean == 0 {
		t.Error("no clean TLDs")
	}
}

func TestCleanTLDsHaveNoMisconfiguredDomains(t *testing.T) {
	p := Generate(smallConfig())
	for _, d := range p.Domains {
		if d.TLD.Clean && d.Class != ClassHealthy && d.Class != ClassHealthySigned {
			t.Fatalf("clean TLD %s hosts %s domain %s", d.TLD.Label, d.Class, d.Name)
		}
	}
}

func TestAllBrokenTLDsFullyMisconfigured(t *testing.T) {
	p := Generate(smallConfig())
	for _, d := range p.Domains {
		if d.TLD.AllBroken && (d.Class == ClassHealthy || d.Class == ClassHealthySigned) {
			t.Fatalf("all-broken TLD %s hosts healthy domain %s", d.TLD.Label, d.Name)
		}
	}
}

func TestBrokenNSConcentration(t *testing.T) {
	p := Generate(Config{TotalDomains: 30300, Seed: 3})
	counts := make([]int, 0, len(p.BrokenNS))
	total := 0
	for _, ns := range p.BrokenNS {
		if ns.Domains > 0 {
			counts = append(counts, ns.Domains)
			total += ns.Domains
		}
	}
	if total == 0 {
		t.Fatal("no lame domains assigned")
	}
	// Sort descending and measure the top-6.8% share — the paper's "fixing
	// 20k of 293k nameservers repairs >81% of domains".
	for i := 0; i < len(counts); i++ {
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[i] {
				counts[i], counts[j] = counts[j], counts[i]
			}
		}
	}
	k := len(p.BrokenNS) * 68 / 1000
	if k < 1 {
		k = 1
	}
	fixed := 0
	for i := 0; i < k && i < len(counts); i++ {
		fixed += counts[i]
	}
	share := float64(fixed) / float64(total)
	if share < 0.55 || share > 0.98 {
		t.Errorf("top-%d nameservers repair %.2f of domains, want top-heavy (~0.81)", k, share)
	}
}

func TestTrancoAssignment(t *testing.T) {
	p := Generate(Config{TotalDomains: 30300, Seed: 9})
	ranked := 0
	edeRanked := 0
	for _, d := range p.Domains {
		if d.Rank == 0 {
			continue
		}
		ranked++
		if d.Rank < 1 || int(d.Rank) > p.TrancoSize {
			t.Fatalf("rank %d out of range", d.Rank)
		}
		switch d.Class {
		case ClassHealthy, ClassHealthySigned:
		default:
			edeRanked++
		}
	}
	if ranked == 0 {
		t.Fatal("no ranked domains")
	}
	frac := float64(edeRanked) / float64(ranked)
	// Paper: 22.1k of 1M = 2.21%.
	if frac < 0.01 || frac > 0.04 {
		t.Errorf("EDE fraction of Tranco = %.4f, want ~0.0221", frac)
	}
}

func TestCCTLDsMoreMisconfigured(t *testing.T) {
	p := Generate(Config{TotalDomains: 30300, Seed: 11})
	var gTotal, gEDE, ccTotal, ccEDE int
	for _, d := range p.Domains {
		if d.TLD.special() {
			continue
		}
		bad := d.Class != ClassHealthy && d.Class != ClassHealthySigned
		if d.TLD.CC {
			ccTotal++
			if bad {
				ccEDE++
			}
		} else {
			gTotal++
			if bad {
				gEDE++
			}
		}
	}
	gRate := float64(gEDE) / float64(gTotal)
	ccRate := float64(ccEDE) / float64(ccTotal)
	if ccRate <= gRate {
		t.Errorf("ccTLD rate %.4f not above gTLD rate %.4f (Figure 1 contrast)", ccRate, gRate)
	}
}
