package edelab

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestKillAndResumeCommands is the campaign's headline identity against the
// real commands, in the CI campaign job's sequence: a 2-shard scan of 3,030
// domains whose shard 0 is SIGKILLed after its first checkpoint and then
// resumed must merge to the bytes of one uninterrupted single-shard scan
// (edereport -merge -aggbytes).
func TestKillAndResumeCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds edescan and edereport and scans 3,030 domains three times")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		if b, err := exec.Command("go", "build", "-o", out, "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, b)
		}
		return out
	}
	edescan, edereport := build("edescan"), build("edereport")
	run := func(bin string, args ...string) string {
		t.Helper()
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
		}
		return stderr.String()
	}
	single, sharded := filepath.Join(dir, "single"), filepath.Join(dir, "sharded")

	// Reference: one uninterrupted run with no shard flags (shard 0 of 1).
	run(edescan, "-domains", "3030", "-checkpoint-dir", single)
	run(edereport, "-merge", "-aggbytes", filepath.Join(dir, "single.bin"), filepath.Join(single, "shard-0-of-1.snap"))

	// Shard 1 of 2 runs to completion.
	run(edescan, "-domains", "3030", "-shards", "2", "-shard", "1", "-checkpoint-dir", sharded, "-workers", "16")

	// Shard 0 of 2 starts slowly (rate-limited, frequent checkpoints) and is
	// SIGKILLed once a checkpoint exists.
	ckpt := filepath.Join(sharded, "shard-0-of-2.snap")
	slow := exec.Command(edescan, "-domains", "3030", "-shards", "2", "-shard", "0", "-checkpoint-dir", sharded,
		"-checkpoint-interval", "100ms", "-workers", "4", "-max-qps", "2000", "-progress", "200ms")
	if err := slow.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			slow.Process.Kill()
			slow.Wait()
			t.Fatal("shard 0 wrote no checkpoint in 30 s")
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := slow.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL shard 0: %v", err)
	}
	slow.Wait()

	// Resume shard 0 from the surviving checkpoint at full speed.
	if stderr := run(edescan, "-domains", "3030", "-shards", "2", "-shard", "0", "-checkpoint-dir", sharded,
		"-resume", "-workers", "16"); !strings.Contains(stderr, "resuming from checkpoint at position") {
		t.Fatalf("the resumed shard did not load its checkpoint:\n%s", stderr)
	}

	merged := filepath.Join(dir, "merged.bin")
	run(edereport, "-merge", "-aggbytes", merged, ckpt, filepath.Join(sharded, "shard-1-of-2.snap"))
	want, err := os.ReadFile(filepath.Join(dir, "single.bin"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("merged shards' aggregate (%d bytes) differs from the single-shard scan's (%d bytes)", len(got), len(want))
	}
}
