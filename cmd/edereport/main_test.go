package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/population"
)

// snapshotFile scans the smallest population the generator makes and writes
// the shard snapshot edescan -checkpoint-dir would; it returns the file and
// the snapshot's canonical aggregate payload.
func snapshotFile(t *testing.T) (string, []byte) {
	t.Helper()
	wild, err := population.Materialize(population.Generate(population.Config{TotalDomains: 1515, Seed: 20230515}))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := campaign.New(campaign.Config{Workers: 8}, wild)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "shard-0-of-1.snap")
	if err := os.WriteFile(file, snap.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return file, snap.AggregateBytes()
}

// TestExitCodes: a report or a merge exits 0 with its own lines, a merge
// that cannot read its input 1, and a command line that cannot be honoured
// 2 (stray files and -write/-aggbytes without -merge were ignored).
func TestExitCodes(t *testing.T) {
	snap, agg := snapshotFile(t)
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	aggOut := filepath.Join(dir, "merged.bin")
	for _, tc := range []struct {
		args []string
		code int
		line string // a line of stdout
		err  string // part of stderr
	}{
		{[]string{"-verbose"}, 2, "", "flag provided but not defined"},
		{[]string{snap}, 2, "", "snapshot files need -merge"},
		{[]string{"-aggbytes", aggOut}, 2, "", "they need -merge"},
		{[]string{"-merge"}, 1, "", "edereport: -merge: no snapshot files given"},
		{[]string{"-merge", filepath.Join(dir, "missing.snap")}, 1, "", "missing.snap"},
		{[]string{"-merge", garbage}, 1, "", "garbage.snap"},
		{[]string{"-merge", "-aggbytes", aggOut, snap}, 0, "# Campaign merge — 1 snapshot(s)", "merge: " + snap + ": shard 0/1, "},
		{[]string{"-domains", "1515", "-workers", "8"}, 0, "## E3 — Table 4 (7 systems × 63 test cases)", "generating 1515-domain population"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr %q", tc.args, code, tc.code, stderr.String())
		}
		if tc.line != "" && !strings.Contains("\n"+stdout.String(), "\n"+tc.line+"\n") {
			t.Errorf("%v: stdout has no line %q:\n%s", tc.args, tc.line, stdout.String())
		}
		if tc.line == "" && stdout.Len() != 0 {
			t.Errorf("%v: stdout should be empty, got %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.err)
		}
	}
	// A merge of one snapshot is that snapshot: the canonical payload comes
	// back byte for byte.
	if got, err := os.ReadFile(aggOut); err != nil || !bytes.Equal(got, agg) {
		t.Errorf("-aggbytes of a one-file merge differs from the snapshot's payload (err %v)", err)
	}
}
