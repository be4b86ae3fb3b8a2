package ede

import (
	"fmt"
	"sort"
	"strings"
)

// Matrix records, for each test case, the EDE set each system returned —
// the shape of the paper's Table 4 (63 cases × 7 systems).
type Matrix struct {
	Systems []string
	Cases   []string
	// Results[caseName][system] is the EDE set returned.
	Results map[string]map[string]Set
}

// NewMatrix creates an empty matrix for the given systems.
func NewMatrix(systems []string) *Matrix {
	return &Matrix{
		Systems: append([]string(nil), systems...),
		Results: make(map[string]map[string]Set),
	}
}

// Record stores the outcome for (caseName, system).
func (m *Matrix) Record(caseName, system string, codes Set) {
	row, ok := m.Results[caseName]
	if !ok {
		row = make(map[string]Set)
		m.Results[caseName] = row
		m.Cases = append(m.Cases, caseName)
	}
	row[system] = codes
}

// AgreementStats is the paper's §3.3 headline analysis.
type AgreementStats struct {
	TotalCases int
	// AgreeCases: every system returned the same EDE set (the paper: 4/63,
	// all of them "no error").
	AgreeCases    int
	AgreeCaseList []string
	// DisagreeRatio = 1 - AgreeCases/TotalCases (the paper: 94%).
	DisagreeRatio float64
	// UniqueCodes counts distinct INFO-CODEs seen anywhere in the matrix
	// (the paper: 12).
	UniqueCodes    int
	UniqueCodeList []Code
	// PerSystemCodes counts distinct codes each system used.
	PerSystemCodes map[string]int
}

// Agreement computes the cross-system agreement statistics.
func (m *Matrix) Agreement() AgreementStats {
	stats := AgreementStats{
		TotalCases:     len(m.Cases),
		PerSystemCodes: make(map[string]int),
	}
	uniq := make(map[Code]bool)
	perSystem := make(map[string]map[Code]bool)
	for _, sys := range m.Systems {
		perSystem[sys] = make(map[Code]bool)
	}
	for _, c := range m.Cases {
		row := m.Results[c]
		agree := true
		first, ok := row[m.Systems[0]]
		if !ok {
			agree = false
		}
		for _, sys := range m.Systems {
			set := row[sys]
			for _, code := range set {
				uniq[code] = true
				perSystem[sys][code] = true
			}
			if ok && !set.Equal(first) {
				agree = false
			}
		}
		if agree {
			stats.AgreeCases++
			stats.AgreeCaseList = append(stats.AgreeCaseList, c)
		}
	}
	if stats.TotalCases > 0 {
		stats.DisagreeRatio = 1 - float64(stats.AgreeCases)/float64(stats.TotalCases)
	}
	for code := range uniq {
		stats.UniqueCodeList = append(stats.UniqueCodeList, code)
	}
	sort.Slice(stats.UniqueCodeList, func(i, j int) bool {
		return stats.UniqueCodeList[i] < stats.UniqueCodeList[j]
	})
	stats.UniqueCodes = len(stats.UniqueCodeList)
	for sys, set := range perSystem {
		stats.PerSystemCodes[sys] = len(set)
	}
	return stats
}

// Specificity ranks systems by how often they returned any EDE for a failing
// case — the paper's observation that Cloudflare gives the richest feedback.
func (m *Matrix) Specificity() []SystemSpecificity {
	out := make([]SystemSpecificity, 0, len(m.Systems))
	for _, sys := range m.Systems {
		s := SystemSpecificity{System: sys}
		for _, c := range m.Cases {
			set := m.Results[c][sys]
			if len(set) > 0 {
				s.CasesWithEDE++
				s.TotalCodes += len(set)
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CasesWithEDE != out[j].CasesWithEDE {
			return out[i].CasesWithEDE > out[j].CasesWithEDE
		}
		return out[i].System < out[j].System
	})
	return out
}

// SystemSpecificity summarizes one system's EDE verbosity.
type SystemSpecificity struct {
	System       string
	CasesWithEDE int
	TotalCodes   int
}

// Render prints the matrix as the paper's Table 4: one row per case, one
// column per system, "None" for empty sets.
func (m *Matrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "Subdomain")
	for _, sys := range m.Systems {
		fmt.Fprintf(&b, " %-12s", sys)
	}
	b.WriteString("\n")
	for _, c := range m.Cases {
		fmt.Fprintf(&b, "%-28s", c)
		for _, sys := range m.Systems {
			fmt.Fprintf(&b, " %-12s", m.Results[c][sys].String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PairAgreement is the extension analysis of §3.3: per-pair agreement rates
// reveal lineage (e.g. public services built on the same open-source
// engine) that the all-or-nothing 4/63 statistic hides.
type PairAgreement struct {
	A, B string
	// Agree counts cases where the two systems returned equal EDE sets.
	Agree int
	Total int
}

// Ratio is the pairwise agreement rate.
func (p PairAgreement) Ratio() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Agree) / float64(p.Total)
}

// Pairwise computes agreement for every system pair, most-agreeing first.
func (m *Matrix) Pairwise() []PairAgreement {
	var out []PairAgreement
	for i := 0; i < len(m.Systems); i++ {
		for j := i + 1; j < len(m.Systems); j++ {
			p := PairAgreement{A: m.Systems[i], B: m.Systems[j]}
			for _, c := range m.Cases {
				p.Total++
				if m.Results[c][p.A].Equal(m.Results[c][p.B]) {
					p.Agree++
				}
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Agree != out[j].Agree {
			return out[i].Agree > out[j].Agree
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
