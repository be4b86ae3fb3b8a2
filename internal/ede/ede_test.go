package ede

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestRegistryTable1 checks the registry against the paper's Table 1.
func TestRegistryTable1(t *testing.T) {
	if len(registry) != 30 {
		t.Fatalf("registry has %d codes, want 30 (Table 1)", len(registry))
	}
	wantNames := map[Code]string{
		0:  "Other",
		1:  "Unsupported DNSKEY Algorithm",
		2:  "Unsupported DS Digest Type",
		3:  "Stale Answer",
		4:  "Forged Answer",
		5:  "DNSSEC Indeterminate",
		6:  "DNSSEC Bogus",
		7:  "Signature Expired",
		8:  "Signature Not Yet Valid",
		9:  "DNSKEY Missing",
		10: "RRSIGs Missing",
		11: "No Zone Key Bit Set",
		12: "NSEC Missing",
		13: "Cached Error",
		14: "Not Ready",
		15: "Blocked",
		16: "Censored",
		17: "Filtered",
		18: "Prohibited",
		19: "Stale NXDOMAIN Answer",
		20: "Not Authoritative",
		21: "Not Supported",
		22: "No Reachable Authority",
		23: "Network Error",
		24: "Invalid Data",
		25: "Signature Expired before Valid",
		26: "Too Early",
		27: "Unsupported NSEC3 Iterations Value",
		28: "Unable to conform to policy",
		29: "Synthesized",
	}
	for code, want := range wantNames {
		if got := code.Name(); got != want {
			t.Errorf("code %d name = %q, want %q", code, got, want)
		}
	}
}

// TestCategoriesSection2 verifies the §2 taxonomy assignment.
func TestCategoriesSection2(t *testing.T) {
	dnssecCodes := []Code{1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 25, 27}
	for _, c := range dnssecCodes {
		if c.Category() != CategoryDNSSEC {
			t.Errorf("code %d category = %s, want dnssec", c, c.Category())
		}
		if !c.IsDNSSEC() {
			t.Errorf("code %d IsDNSSEC = false", c)
		}
	}
	for _, c := range []Code{3, 13, 19, 29} {
		if c.Category() != CategoryCaching {
			t.Errorf("code %d category = %s, want caching", c, c.Category())
		}
	}
	for _, c := range []Code{4, 15, 16, 17, 18, 20} {
		if c.Category() != CategoryPolicy {
			t.Errorf("code %d category = %s, want policy", c, c.Category())
		}
	}
	for _, c := range []Code{14, 21, 22, 23} {
		if c.Category() != CategoryOperation {
			t.Errorf("code %d category = %s, want operation", c, c.Category())
		}
	}
}

func TestUnknownCode(t *testing.T) {
	c := Code(999)
	if _, ok := Lookup(c); ok {
		t.Error("Lookup(999) registered")
	}
	if !strings.Contains(c.Name(), "Unassigned") {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestSetEqualIsMultisetEquality(t *testing.T) {
	if !(Set{9, 22, 23}).Equal(Set{23, 9, 22}) {
		t.Error("order-insensitive equality failed")
	}
	if (Set{9}).Equal(Set{9, 9}) {
		t.Error("multiset cardinality ignored")
	}
	if !(Set{}).Equal(nil) {
		t.Error("empty sets unequal")
	}
	if (Set{9}).Equal(Set{10}) {
		t.Error("different codes equal")
	}
}

func TestSetEqualProperty(t *testing.T) {
	f := func(a []uint16) bool {
		s := make(Set, len(a))
		for i, v := range a {
			s[i] = Code(v % 30)
		}
		rev := make(Set, len(s))
		for i := range s {
			rev[len(s)-1-i] = s[i]
		}
		return s.Equal(rev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetString(t *testing.T) {
	if got := (Set{}).String(); got != "None" {
		t.Errorf("empty set = %q", got)
	}
	if got := (Set{9, 22, 23}).String(); got != "9,22,23" {
		t.Errorf("set = %q", got)
	}
}

func diag(rcode dnswire.RCode, codes ...uint16) Diagnosis {
	m := &dnswire.Message{Response: true, RCode: rcode}
	for _, c := range codes {
		m.AddEDE(c, "")
	}
	return Diagnose(Observe(m))
}

func TestDiagnoseRootCauses(t *testing.T) {
	cases := []struct {
		codes     []uint16
		rcode     dnswire.RCode
		wantParty string
		wantSev   Severity
	}{
		{[]uint16{7}, dnswire.RCodeServFail, "domain owner", SeverityFailed},
		{[]uint16{9}, dnswire.RCodeServFail, "domain owner", SeverityFailed},
		{[]uint16{6}, dnswire.RCodeServFail, "domain owner", SeverityFailed},
		{[]uint16{22, 23}, dnswire.RCodeServFail, "DNS operator", SeverityFailed},
		{[]uint16{24}, dnswire.RCodeServFail, "DNS operator", SeverityFailed},
		{[]uint16{15}, dnswire.RCodeNXDomain, "resolver operator", SeverityFailed},
		{[]uint16{3}, dnswire.RCodeNoError, "DNS operator", SeverityDegraded},
		{[]uint16{13}, dnswire.RCodeServFail, "DNS operator", SeverityFailed},
		{nil, dnswire.RCodeNoError, "nobody", SeverityOK},
		{nil, dnswire.RCodeServFail, "unknown", SeverityFailed},
	}
	for _, c := range cases {
		d := diag(c.rcode, c.codes...)
		if d.Party != c.wantParty || d.Severity != c.wantSev {
			t.Errorf("codes %v rcode %s: party=%q sev=%v, want %q/%v (%s)",
				c.codes, c.rcode, d.Party, d.Severity, c.wantParty, c.wantSev, d.RootCause)
		}
	}
}

func TestDiagnoseAdvisoryOnNoError(t *testing.T) {
	// NOERROR with a DNSSEC-failure code is informational (the stand-by
	// KSK pattern): severity degrades to Info, not Failed.
	d := diag(dnswire.RCodeNoError, 10)
	if d.Severity != SeverityInfo {
		t.Errorf("severity = %v, want info", d.Severity)
	}
	if !strings.Contains(d.Remediation, "warning") {
		t.Errorf("remediation %q missing advisory note", d.Remediation)
	}
}

func TestDiagnosePrioritizesSpecificCodes(t *testing.T) {
	// 9 (DNSKEY missing) + 22/23 (reachability): the data problem wins.
	d := diag(dnswire.RCodeServFail, 9, 22, 23)
	if d.Party != "domain owner" {
		t.Errorf("party = %q, want domain owner (%s)", d.Party, d.RootCause)
	}
}

func TestMatrixAgreement(t *testing.T) {
	m := NewMatrix([]string{"A", "B"})
	m.Record("case1", "A", Set{9})
	m.Record("case1", "B", Set{9})
	m.Record("case2", "A", Set{9})
	m.Record("case2", "B", Set{6})
	m.Record("case3", "A", nil)
	m.Record("case3", "B", nil)
	stats := m.Agreement()
	if stats.TotalCases != 3 || stats.AgreeCases != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.UniqueCodes != 2 {
		t.Errorf("unique codes = %d", stats.UniqueCodes)
	}
	if stats.PerSystemCodes["A"] != 1 || stats.PerSystemCodes["B"] != 2 {
		t.Errorf("per-system = %v", stats.PerSystemCodes)
	}
	spec := m.Specificity()
	if spec[0].System != "A" && spec[0].System != "B" {
		t.Errorf("specificity = %v", spec)
	}
}

func TestDiagnoseRemainingBranches(t *testing.T) {
	cases := []struct {
		codes     []uint16
		wantSub   string // substring of the root cause
		wantParty string
	}{
		{[]uint16{11}, "Zone Key bit", "domain owner"},
		{[]uint16{12}, "proof of non-existence", "domain owner"},
		{[]uint16{27}, "iteration count", "domain owner"},
		{[]uint16{1}, "algorithm", "domain owner"},
		{[]uint16{2}, "digest", "domain owner"},
		{[]uint16{8}, "not yet valid", "domain owner"},
		{[]uint16{25}, "expired", "domain owner"},
		{[]uint16{5}, "bogus", "domain owner"},
		{[]uint16{14}, "role or state", "resolver operator"},
		{[]uint16{21}, "role or state", "resolver operator"},
		{[]uint16{20}, "role or state", "resolver operator"},
		{[]uint16{19}, "stale", "DNS operator"},
		{[]uint16{16}, "policy", "resolver operator"},
		{[]uint16{17}, "policy", "resolver operator"},
		{[]uint16{999}, "unclassified", "unknown"},
	}
	for _, c := range cases {
		d := diag(dnswire.RCodeServFail, c.codes...)
		if !strings.Contains(d.RootCause, c.wantSub) || d.Party != c.wantParty {
			t.Errorf("codes %v: cause=%q party=%q, want ~%q/%q",
				c.codes, d.RootCause, d.Party, c.wantSub, c.wantParty)
		}
	}
}

func TestDiagnoseEvidenceCollection(t *testing.T) {
	m := &dnswire.Message{Response: true, RCode: dnswire.RCodeServFail}
	m.AddEDE(23, "192.0.2.1:53 rcode=REFUSED for x.com A")
	m.AddEDE(22, "")
	d := Diagnose(Observe(m))
	if len(d.Evidence) != 2 {
		t.Fatalf("evidence = %v", d.Evidence)
	}
	if !strings.Contains(d.Evidence[0], "REFUSED") {
		t.Errorf("evidence[0] = %q", d.Evidence[0])
	}
}

func TestObserveCodes(t *testing.T) {
	m := &dnswire.Message{Response: true}
	m.AddEDE(6, "")
	m.AddEDE(10, "")
	o := Observe(m)
	if !o.Codes().Equal(Set{6, 10}) {
		t.Errorf("codes = %v", o.Codes())
	}
}

func TestInfoRetriableFlags(t *testing.T) {
	// Server-side conditions are retriable elsewhere; data problems are not.
	retriable := []Code{CodeStaleAnswer, CodeCachedError, CodeNoReachableAuthority, CodeNetworkError, CodeOther}
	permanent := []Code{CodeDNSSECBogus, CodeSignatureExpired, CodeDNSKEYMissing, CodeBlocked}
	for _, c := range retriable {
		if info, _ := Lookup(c); !info.Retriable {
			t.Errorf("%s should be retriable", c)
		}
	}
	for _, c := range permanent {
		if info, _ := Lookup(c); info.Retriable {
			t.Errorf("%s should not be retriable", c)
		}
	}
}

func TestPairwiseAgreement(t *testing.T) {
	m := NewMatrix([]string{"X", "Y", "Z"})
	m.Record("c1", "X", Set{9})
	m.Record("c1", "Y", Set{9})
	m.Record("c1", "Z", Set{6})
	m.Record("c2", "X", nil)
	m.Record("c2", "Y", nil)
	m.Record("c2", "Z", nil)
	pairs := m.Pairwise()
	if len(pairs) != 3 {
		t.Fatalf("%d pairs", len(pairs))
	}
	if pairs[0].A != "X" || pairs[0].B != "Y" || pairs[0].Agree != 2 {
		t.Errorf("top pair = %+v", pairs[0])
	}
	if pairs[0].Ratio() != 1.0 {
		t.Errorf("ratio = %f", pairs[0].Ratio())
	}
}

// Category returns the §2 category for c (CategoryOther for unknown codes).
func (c Code) Category() Category {
	if info, ok := registry[c]; ok {
		return info.Category
	}
	return CategoryOther
}

// IsDNSSEC reports whether c concerns DNSSEC validation.
func (c Code) IsDNSSEC() bool { return c.Category() == CategoryDNSSEC }
