package errreport

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

var agentDomain = dnswire.MustName("agent.monitoring.example")

func TestQNameRoundTrip(t *testing.T) {
	name, err := BuildQName(dnswire.MustName("broken.example.com"), dnswire.TypeA, 7, agentDomain)
	if err != nil {
		t.Fatal(err)
	}
	want := "_er.1.broken.example.com.7._er." + string(agentDomain)
	if string(name) != want {
		t.Errorf("qname = %s, want %s", name, want)
	}
	report, ok := ParseQName(name, agentDomain)
	if !ok {
		t.Fatal("ParseQName failed")
	}
	if report.QName != dnswire.MustName("broken.example.com") ||
		report.QType != dnswire.TypeA || report.InfoCode != 7 {
		t.Errorf("report = %+v", report)
	}
}

func TestQNameRoundTripProperty(t *testing.T) {
	f := func(code uint16, qtypeRaw uint8, label uint8) bool {
		qtype := dnswire.Type(qtypeRaw)
		qname := dnswire.MustName("d" + strings.Repeat("x", int(label%20)+1) + ".example")
		name, err := BuildQName(qname, qtype, code, agentDomain)
		if err != nil {
			return true // over-long names are allowed to fail
		}
		report, ok := ParseQName(name, agentDomain)
		return ok && report.QName == qname && report.QType == qtype && report.InfoCode == code
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildQNameRejectsOverlong(t *testing.T) {
	long := dnswire.MustName(strings.Repeat("abcdefgh.", 26) + "example")
	if _, err := BuildQName(long, dnswire.TypeA, 7, agentDomain); err == nil {
		t.Error("BuildQName accepted a name that cannot fit")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"foo.agent.monitoring.example",
		"_er.x.broken.example.7._er.agent.monitoring.example",  // bad qtype
		"_er.1.broken.example.xx._er.agent.monitoring.example", // bad code
		"_er.1.7._er.agent.monitoring.example",                 // no qname
		"www.unrelated.example",
	}
	for _, s := range bad {
		if _, ok := ParseQName(dnswire.MustName(s), agentDomain); ok {
			t.Errorf("ParseQName accepted %q", s)
		}
	}
}

func TestAgentRecordsReports(t *testing.T) {
	net_ := netsim.New(1)
	agent := NewAgent(agentDomain)
	addr := netip.MustParseAddr("198.18.40.1")
	net_.Register(addr, agent)
	rep := &Reporter{Net: net_, Agent: agentDomain, AgentAddr: addr}

	ctx := context.Background()
	if err := rep.ReportFailure(ctx, dnswire.MustName("a.example"), dnswire.TypeA, 7); err != nil {
		t.Fatal(err)
	}
	if err := rep.ReportFailure(ctx, dnswire.MustName("b.example"), dnswire.TypeA, 7); err != nil {
		t.Fatal(err)
	}
	if err := rep.ReportFailure(ctx, dnswire.MustName("c.example"), dnswire.TypeAAAA, 9); err != nil {
		t.Fatal(err)
	}

	if got := rep.Sent(); got != 3 {
		t.Errorf("sent = %d", got)
	}
	counts := agent.CountsByCode()
	if counts[7] != 2 || counts[9] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if top := agent.TopCodes(); len(top) != 2 || top[0] != 7 {
		t.Errorf("top = %v", top)
	}
	reports := agent.Reports()
	if len(reports) != 3 || reports[2].QType != dnswire.TypeAAAA {
		t.Errorf("reports = %v", reports)
	}
}

func TestAgentRejectsNonReports(t *testing.T) {
	agent := NewAgent(agentDomain)
	q := dnswire.NewQuery(1, dnswire.MustName("www.agent.monitoring.example"), dnswire.TypeTXT)
	resp, err := agent.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %s", resp.RCode)
	}
	if len(agent.Reports()) != 0 {
		t.Error("garbage recorded as report")
	}
}

// TestEndToEndWithWildScan wires the reporting channel into a miniature
// wild scan: every failing resolution is reported, and the agent's tallies
// mirror the scan's failing EDE distribution — the operational feedback
// loop the paper's conclusion calls for.
func TestEndToEndWithWildScan(t *testing.T) {
	pop := population.Generate(population.Config{TotalDomains: 1515, Seed: 5})
	wild, err := population.Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(agentDomain)
	agentAddr := netip.MustParseAddr("198.18.40.2")
	wild.Net.Register(agentAddr, agent)
	rep := &Reporter{Net: wild.Net, Agent: agentDomain, AgentAddr: agentAddr}

	ctx := context.Background()
	wantReports := 0
	scan.WarmScanner(ctx, wild, resolver.ProfileCloudflare(), 8, nil).ScanStream(ctx, pop.Names(), func(r scan.Result) {
		if r.RCode != dnswire.RCodeServFail || len(r.Codes) == 0 {
			return
		}
		wantReports++
		if err := rep.ReportFailure(ctx, r.Domain, dnswire.TypeA, r.Codes[0]); err != nil {
			t.Error(err)
		}
	})
	if wantReports == 0 {
		t.Fatal("no failing domains in population")
	}
	if got := len(agent.Reports()); got != wantReports {
		t.Errorf("agent received %d reports, want %d", got, wantReports)
	}
	// The dominant reported code must be 22 (lame delegation), as in §4.2.
	if top := agent.TopCodes(); len(top) == 0 || top[0] != 22 {
		t.Errorf("top reported codes = %v, want 22 first", agent.TopCodes())
	}
}

func TestReportChannelOptionRoundTrip(t *testing.T) {
	m := dnswire.NewQuery(1, dnswire.MustName("x.example"), dnswire.TypeA)
	m.Response = true
	m.OPT.Options = append(m.OPT.Options, dnswire.ReportChannelOption{AgentDomain: agentDomain})
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, opt := range parsed.OPT.Options {
		if rc, ok := opt.(dnswire.ReportChannelOption); ok {
			found = true
			if rc.AgentDomain != agentDomain {
				t.Errorf("agent domain = %s", rc.AgentDomain)
			}
		}
	}
	if !found {
		t.Error("REPORT-CHANNEL option lost in round trip")
	}
}
