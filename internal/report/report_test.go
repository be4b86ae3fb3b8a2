package report

import (
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

func sampleAggregate() *scan.Aggregate {
	agg := scan.NewAggregate()
	for _, r := range []scan.Result{
		{Domain: dnswire.MustName("a.com"), RCode: dnswire.RCodeServFail, Codes: []uint16{22, 23}},
		{Domain: dnswire.MustName("b.com"), RCode: dnswire.RCodeServFail, Codes: []uint16{22}},
		{Domain: dnswire.MustName("c.com"), RCode: dnswire.RCodeNoError, Codes: []uint16{10}},
		{Domain: dnswire.MustName("d.com"), RCode: dnswire.RCodeNoError},
	} {
		agg.Add(r)
	}
	return agg
}

func TestSection42Table(t *testing.T) {
	out := Section42Table(sampleAggregate())
	for _, want := range []string{
		"4 domains, 3 (75.00%)",
		"1 domains answered NOERROR",
		"No Reachable Authority",
		"RRSIGs Missing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// 22 (2 domains) must be listed before 10 and 23 (1 each).
	if strings.Index(out, "No Reachable Authority") > strings.Index(out, "Network Error") {
		t.Error("codes not ordered by count")
	}
}

func TestCDFPlotShape(t *testing.T) {
	out := CDFPlot("test plot", "value", 40, 8,
		CDFSeries{Label: "s1", Marker: '*', Xs: []float64{1, 2, 3, 4, 5}})
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "* = s1 (n=5)") {
		t.Errorf("plot missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no data points plotted")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
}

func TestCDFPlotEmptySeries(t *testing.T) {
	out := CDFPlot("empty", "x", 40, 8, CDFSeries{Label: "none", Marker: '.'})
	if !strings.Contains(out, "empty") {
		t.Error("empty plot unrenderable")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]float64{{1, 0.5}, {2, 1}})
	want := "a,b\n1,0.500000\n2,1\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestFigureCSVs(t *testing.T) {
	f1 := Figure1CSV([]float64{0, 10, 20}, []float64{50, 100})
	if !strings.HasPrefix(f1, "series(0=gTLD 1=ccTLD),ratio_percent,cdf\n") {
		t.Errorf("figure 1 header: %q", f1[:50])
	}
	if strings.Count(f1, "\n") != 6 {
		t.Errorf("figure 1 rows = %d", strings.Count(f1, "\n")-1)
	}
	f2 := Figure2CSV(scan.TrancoStats{ListSize: 100, Ranks: []int{10, 50, 90}})
	if strings.Count(f2, "\n") != 4 {
		t.Errorf("figure 2 rows: %q", f2)
	}
}

func TestAgreementSummary(t *testing.T) {
	m := ede.NewMatrix([]string{"X", "Y"})
	m.Record("c1", "X", ede.Set{9})
	m.Record("c1", "Y", ede.Set{6})
	out := AgreementSummary(m.Agreement())
	for _, want := range []string{"Test cases:            1", "Disagreement ratio:    100.0%", "Unique INFO-CODEs:     2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFixCurve(t *testing.T) {
	conc := scan.NSConcentration{Counts: []int{80, 15, 5}, TotalDomains: 100}
	out := FixCurve(conc, []int{1, 2, 3})
	for _, want := range []string{"80.0%", "95.0%", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("curve missing %q:\n%s", want, out)
		}
	}
}
