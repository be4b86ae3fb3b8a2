package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

// edescan runs the command at the smallest population the generator makes
// (-domains 1515) and returns what it printed.
func edescan(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append([]string{"-domains", "1515", "-workers", "8"}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

// table cuts the §4.2 table off the front of a default run's stdout: the
// summary after the first blank line carries timings.
func table(t *testing.T, stdout string) string {
	t.Helper()
	tbl, _, ok := strings.Cut(stdout, "\n\n")
	if !ok || !strings.Contains(tbl, "triggered EDE codes") {
		t.Fatalf("no §4.2 table followed by a summary in:\n%s", stdout)
	}
	return tbl
}

// TestDefaultRunIsShardZeroOfOne: there is one pipeline, so naming the
// default shard geometry changes nothing, and -max-qps, -authority-qps and
// -checkpoint-dir work without -shards (they were silently ignored).
func TestDefaultRunIsShardZeroOfOne(t *testing.T) {
	code, plain, stderr := edescan(t)
	if code != 0 {
		t.Fatalf("default run exited %d: %s", code, stderr)
	}
	code, sharded, stderr := edescan(t, "-shards", "1", "-shard", "0")
	if code != 0 {
		t.Fatalf("-shards 1 run exited %d: %s", code, stderr)
	}
	if table(t, plain) != table(t, sharded) {
		t.Errorf("default run and -shards 1 print different tables:\n%s\n---\n%s", plain, sharded)
	}
	dir := t.TempDir()
	code, capped, stderr := edescan(t, "-checkpoint-dir", dir, "-max-qps", "1e6")
	if code != 0 {
		t.Fatalf("-checkpoint-dir -max-qps run exited %d: %s", code, stderr)
	}
	if table(t, plain) != table(t, capped) {
		t.Errorf("default run and checkpointed, rate-capped run print different tables:\n%s\n---\n%s", plain, capped)
	}
	for _, want := range []string{"\nscan: shard 0/1: ", "\nnetwork: ", "\nlimiter: admitted ", "\nsnapshot written to "} {
		if !strings.Contains(capped, want) {
			t.Errorf("summary lacks %q:\n%s", want, capped)
		}
	}
	code, polite, stderr := edescan(t, "-authority-qps", "1e6")
	if code != 0 {
		t.Fatalf("-authority-qps run exited %d: %s", code, stderr)
	}
	if table(t, plain) != table(t, polite) {
		t.Errorf("default run and per-authority-capped run print different tables:\n%s\n---\n%s", plain, polite)
	}
	if !strings.Contains(polite, "\nlimiter: admitted ") {
		t.Errorf("summary lacks the limiter line:\n%s", polite)
	}
	if strings.Contains(plain, "limiter:") || strings.Contains(plain, "snapshot written") {
		t.Errorf("a run without -max-qps or -checkpoint-dir reports a limiter or snapshot:\n%s", plain)
	}
	snap := filepath.Join(dir, "shard-0-of-1.snap")
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint at %s: %v", snap, err)
	}

	// A resume of the finished shard re-scans nothing and prints the table
	// again from the checkpoint.
	code, resumed, stderr := edescan(t, "-checkpoint-dir", dir, "-resume")
	if code != 0 {
		t.Fatalf("-resume exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming from checkpoint at position") {
		t.Errorf("-resume did not report the checkpoint it read:\n%s", stderr)
	}
	if table(t, resumed) != table(t, plain) {
		t.Errorf("resumed table differs:\n%s", resumed)
	}
}

// TestReports: every report that replaces the table comes out of the same
// pipeline. These printed the table instead when -shards was set.
func TestReports(t *testing.T) {
	if testing.Short() {
		t.Skip("seven more populations to sign; the full run covers them")
	}
	for _, tc := range []struct {
		args  []string
		first string // prefix of stdout
		has   string
		table bool // the §4.2 table is part of the report
	}{
		{[]string{"-figure", "1", "-csv"}, "series(0=gTLD 1=ccTLD),ratio_percent,cdf\n0,", "\n1,100,1\n", false},
		{[]string{"-figure", "2", "-csv"}, "rank,cdf\n", "", false},
		{[]string{"-figure", "2"}, "Figure 2: ", "\nTranco overlap: ", false},
		{[]string{"-fixcurve"}, "Broken nameservers: ", "\n fix top ", false},
		{[]string{"-whatif-fix", "3"}, "Wild scan: ", "\nrepaired 3 nameservers: EDE-22 domains ", true},
		{[]string{"-profile", "compare", "-progress", "1ms"}, "profile ", "\nCloudflare ", false},
		{[]string{"-profile", "bind", "-shards", "2", "-shard", "1"}, "Wild scan: ", "\nscan: shard 1/2: ", true},
	} {
		code, stdout, stderr := edescan(t, tc.args...)
		if code != 0 {
			t.Errorf("%v exited %d: %s", tc.args, code, stderr)
			continue
		}
		if !strings.HasPrefix(stdout, tc.first) || !strings.Contains(stdout, tc.has) {
			t.Errorf("%v: stdout should start %q and contain %q:\n%s", tc.args, tc.first, tc.has, stdout)
		}
		if strings.Contains(stdout, "triggered EDE codes") != tc.table {
			t.Errorf("%v: §4.2 table printed = %t, want %t:\n%s", tc.args, !tc.table, tc.table, stdout)
		}
		if tc.args[0] == "-profile" && tc.args[1] == "compare" {
			// Seven profiles reported from three behaviour classes' scans.
			table, _, _ := strings.Cut(stdout, "\n\n")
			if n := len(strings.Split(table, "\n")) - 1; n != 7 {
				t.Errorf("compare printed %d profile rows, want 7:\n%s", n, stdout)
			}
			if n := strings.Count(stderr, "scanning domains"); n != 3 {
				t.Errorf("compare ran %d scans, want 3 (one per behaviour class):\n%s", n, stderr)
			}
			ownScans(t)
		}
	}
}

// ownScans: each row -profile compare reports is what that profile's own
// scan of the same population reports. Both run on one world, the compare
// scans first. One world is where a pass that depends on the passes before
// it would show; and two worlds of one seed may differ anyway, since their
// keys are drawn at random and a key-tag clash fails one TLD's signatures.
func ownScans(t *testing.T) {
	t.Helper()
	wild, err := population.Materialize(population.Generate(population.Config{TotalDomains: 1515, Seed: 20230515}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Shards: 1, Workers: 8}
	rows, err := compareRows(wild, cfg, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		cfg.Profile, _ = resolver.ProfileByName(row.Profile)
		snaps, _, err := scanShard(wild, cfg, nil, 0, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if own := scan.CompareProfiles(map[string]*scan.Aggregate{row.Profile: snaps[0].Agg}); own[0] != row {
			t.Errorf("compare row %+v; the profile's own scan reports %+v", row, own[0])
		}
	}
}

// TestChaosScanKeepsItsWorkers: the README's scan through 20% loss. Without a
// rate cap there is no governor to mistake the injected loss for upstream
// pressure, so every progress line reports the full worker count (with the
// governor attached the scan halved its way down to one resolution at a time
// and ran 35× slower).
func TestChaosScanKeepsItsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of real retry back-off")
	}
	code, stdout, stderr := edescan(t, "-workers", "64", "-chaos", "loss=0.2", "-chaos-seed", "7", "-retries", "6", "-progress", "50ms")
	if code != 0 || !strings.Contains(stdout, "\nscan: shard 0/1: ") {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "injecting faults: ") {
		t.Errorf("-chaos did not report the fault profile:\n%s", stderr)
	}
	lines := strings.Count(stderr, "\nprogress: ")
	if full := strings.Count(stderr, " queries/domain, concurrency 64\n"); lines == 0 || full != lines {
		t.Errorf("%d of %d progress lines report concurrency 64:\n%s", full, lines, stderr)
	}
}

// TestUnhonourableCommandLines: a flag either takes effect or the command
// exits 2 saying why, before it generates anything.
func TestUnhonourableCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		why  string
	}{
		{[]string{"-agg-only"}, "flag provided but not defined"},
		{[]string{"-scale", "1"}, "flag provided but not defined"},
		{[]string{"-profile", "google"}, `unknown profile "google"`},
		{[]string{"-profile", "dns"}, `unknown profile "dns"`},
		{[]string{"-shards", "2", "-shard", "2"}, "shard 2 out of range [0,2)"},
		{[]string{"-shards", "0"}, "out of range"},
		{[]string{"-resume"}, "-resume needs the -checkpoint-dir"},
		{[]string{"-shards", "2", "-shard", "0", "-figure", "1", "-csv"}, "whole population, not shard 0 of 2"},
		{[]string{"-shards", "2", "-fixcurve"}, "whole population"},
		{[]string{"-shards", "2", "-whatif-fix", "3"}, "whole population"},
		{[]string{"-shards", "2", "-profile", "compare"}, "whole population"},
		{[]string{"-figure", "1", "-fixcurve"}, "pick one"},
		{[]string{"-figure", "3"}, "figures 1 and 2"},
		{[]string{"-csv"}, "-csv needs -figure"},
		{[]string{"-profile", "compare", "-checkpoint-dir", t.TempDir()}, "holds one profile's snapshot"},
		{[]string{"-chaos", "nonsense=1"}, "-chaos:"},
	} {
		code, stdout, stderr := edescan(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.why) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.why)
		}
		if stdout != "" || strings.Contains(stderr, "generating population") {
			t.Errorf("%v: did work before refusing: stdout %q stderr %q", tc.args, stdout, stderr)
		}
	}
}
