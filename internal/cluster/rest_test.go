package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func restCluster(t *testing.T) *Cluster {
	t.Helper()
	cl := New(Config{
		Seed: 1,
		Manifest: func() []ZoneInfo {
			return []ZoneInfo{
				{Name: "com.", Hash: HashZoneText("com-zone")},
				{Name: "example.com.", Hash: HashZoneText("example-zone")},
			}
		},
	})
	if _, err := cl.AddLocal("r0", failingUpstream{}); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	return cl
}

func TestClusterRESTJoinStateDiff(t *testing.T) {
	cl := restCluster(t)
	srv := httptest.NewServer(cl.RESTHandler())
	defer srv.Close()
	ctx := context.Background()

	st, err := FetchState(ctx, srv.URL)
	if err != nil {
		t.Fatalf("FetchState: %v", err)
	}
	if st.Epoch == 0 || len(st.Members) != 1 || st.Members[0].ID != "r0" || !st.Members[0].Local {
		t.Fatalf("unexpected initial state: %+v", st)
	}
	if len(st.Zones) != 2 || st.Zones[0].Name != "com." {
		t.Fatalf("unexpected zones: %+v", st.Zones)
	}
	base := st.Epoch

	// Join a remote replica; the reply is the new epoch snapshot.
	st2, err := Join(ctx, srv.URL, "r9", "127.0.0.1:5399")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if st2.Epoch != base+1 || len(st2.Members) != 2 {
		t.Fatalf("join did not advance state: %+v", st2)
	}
	var r9 MemberInfo
	for _, m := range st2.Members {
		if m.ID == "r9" {
			r9 = m
		}
	}
	if r9.Addr != "127.0.0.1:5399" || r9.State != "active" || r9.Local {
		t.Fatalf("unexpected joined member: %+v", r9)
	}

	// Incremental catch-up from the pre-join epoch names the join.
	d, err := FetchDiff(ctx, srv.URL, base)
	if err != nil {
		t.Fatalf("FetchDiff: %v", err)
	}
	if d.Full || len(d.Changes) != 1 || d.Changes[0].Kind != "join" || d.Changes[0].Name != "r9" {
		t.Fatalf("unexpected diff: %+v", d)
	}

	// Drain then leave: the rolling-restart announcement sequence.
	if err := AnnounceDrain(ctx, srv.URL, "r9"); err != nil {
		t.Fatalf("AnnounceDrain: %v", err)
	}
	if err := AnnounceLeave(ctx, srv.URL, "r9"); err != nil {
		t.Fatalf("AnnounceLeave: %v", err)
	}
	st3, err := FetchState(ctx, srv.URL)
	if err != nil {
		t.Fatalf("FetchState: %v", err)
	}
	for _, m := range st3.Members {
		if m.ID == "r9" && m.State != "down" {
			t.Fatalf("r9 state %q after leave, want down", m.State)
		}
	}

	// Rejoining with the same id reactivates rather than duplicating.
	st4, err := Join(ctx, srv.URL, "r9", "127.0.0.1:5400")
	if err != nil {
		t.Fatalf("re-Join: %v", err)
	}
	if len(st4.Members) != 2 {
		t.Fatalf("rejoin duplicated the member: %+v", st4.Members)
	}
	d2, err := FetchDiff(ctx, srv.URL, st3.Epoch)
	if err != nil {
		t.Fatalf("FetchDiff: %v", err)
	}
	if len(d2.Changes) != 1 || d2.Changes[0].Kind != "rejoin" {
		t.Fatalf("rejoin not in diff: %+v", d2)
	}

	// An unknown replica 404s.
	if err := AnnounceDrain(ctx, srv.URL, "nope"); err == nil {
		t.Fatal("draining an unknown replica succeeded")
	}
}

func TestClusterDiffTruncatesToFull(t *testing.T) {
	cl := restCluster(t)
	start := cl.Epoch()
	for i := 0; i < diffLogCap+8; i++ {
		cl.BumpZone(fmt.Sprintf("z%d.", i))
	}
	d := cl.DiffSince(start)
	if !d.Full {
		t.Fatalf("diff across a trimmed log must be Full: %+v", Diff{From: d.From, To: d.To, Full: d.Full})
	}
	d = cl.DiffSince(cl.Epoch() - 3)
	if d.Full || len(d.Changes) != 3 {
		t.Fatalf("recent diff should be incremental, got full=%v n=%d", d.Full, len(d.Changes))
	}
	d = cl.DiffSince(cl.Epoch())
	if d.Full || len(d.Changes) != 0 {
		t.Fatalf("up-to-date diff should be empty, got %+v", d)
	}
}

func TestVerifyManifest(t *testing.T) {
	local := []ZoneInfo{{Name: "a.", Hash: "1"}, {Name: "b.", Hash: "2"}}
	if err := VerifyManifest(local, []ZoneInfo{{Name: "b.", Hash: "2"}, {Name: "a.", Hash: "1"}}); err != nil {
		t.Fatalf("order must not matter: %v", err)
	}
	err := VerifyManifest(local, []ZoneInfo{{Name: "a.", Hash: "1"}, {Name: "b.", Hash: "X"}})
	if err == nil || !strings.Contains(err.Error(), "b.") {
		t.Fatalf("hash mismatch undetected: %v", err)
	}
	if err := VerifyManifest(local, local[:1]); err == nil {
		t.Fatal("zone-count mismatch undetected")
	}
}

// BumpZone records a zone-content change, advancing the epoch so
// secondaries detect it via /diff and re-verify the manifest.
func (c *Cluster) BumpZone(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked("zone", name)
}
