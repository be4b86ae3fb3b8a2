package population

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// populationSHA256 hashes everything Generate decides: every TLD, every
// domain and every broken nameserver, in generation order.
func populationSHA256(p *Population) string {
	h := sha256.New()
	for _, t := range p.TLDs {
		fmt.Fprintf(h, "%s %t %t %t %t %t %t %t %d %s\n", t.Name, t.CC, t.Standby, t.BogusDenial,
			t.NoProof, t.Clean, t.AllBroken, t.NSECDenial, t.Domains, t.Addr)
	}
	for _, d := range p.Domains {
		fmt.Fprintf(h, "%s %d %d %d\n", d.Name, d.Class, d.Rank, d.BrokenNS)
	}
	for _, ns := range p.BrokenNS {
		fmt.Fprintf(h, "%s %s %d\n", ns.Addr, ns.Behavior, ns.Domains)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateIsStable pins the population to the byte: a faster Generate
// must build the same TLDs, names, classes, ranks and nameserver assignment
// from the same seed, because every scan figure, golden and benchmark input
// is a function of them.
func TestGenerateIsStable(t *testing.T) {
	cases := []struct {
		seed   uint64
		size   int
		sha256 string
		long   bool
	}{
		{20230515, 3030, "fede2624d9917a4dcb103eaebe560a89051b6e3537ad91d12261f744b76f975c", false},
		{42, 30300, "7d1ad573672310808789a770d461a0357e7c4118afa3d68ceea005a3d534a696", false},
		{20230515, 101000, "ae43f67a088c74ff2dabdd94059ebf7f0efc0f8352c6d1544b351fab6a1c19ee", false},
		{20230515, 120000, "feca5542d237f7480b3739e47e50c7d05409e4ad44712102fda1d8847cfafaf1", true},
		{20230515, 410060, "fa3ec794e41d7374138d5e7a03f9d0f9c01221762170371a18b87a56eff95311", true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/size=%d", c.seed, c.size), func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("large population; skipped under -short")
			}
			if got := populationSHA256(Generate(Config{TotalDomains: c.size, Seed: c.seed})); got != c.sha256 {
				t.Errorf("population sha256 = %s, want %s", got, c.sha256)
			}
		})
	}
}
