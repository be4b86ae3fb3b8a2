package cluster

import (
	"context"
	"io"
	"net/http"
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

func TestClusterRESTJoinState(t *testing.T) {
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
	if r9 := member(st2, "r9"); r9.Addr != "127.0.0.1:5399" || r9.State != "active" || r9.Local {
		t.Fatalf("unexpected joined member: %+v", r9)
	}

	// The primary's one per-replica view serves a local replica's own
	// registry; a remote member keeps its counters in its own process.
	for _, tc := range []struct {
		replica string
		code    int
	}{{"r0", http.StatusOK}, {"r9", http.StatusNotFound}, {"nope", http.StatusNotFound}} {
		resp, err := http.Get(srv.URL + "/api/cluster/metrics?replica=" + tc.replica)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("metrics for %s: %s, want %d", tc.replica, resp.Status, tc.code)
		}
		if tc.code == http.StatusOK && !strings.Contains(string(body), "\nedelab_frontend_queries_total 0\n") {
			t.Fatalf("metrics for %s lack its frontend counters:\n%s", tc.replica, body)
		}
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
	if r9 := member(st3, "r9"); r9.State != "down" || st3.Epoch != st2.Epoch+2 {
		t.Fatalf("r9 %s at epoch %d after drain and leave, want down at %d", r9.State, st3.Epoch, st2.Epoch+2)
	}

	// Rejoining with the same id reactivates rather than duplicating, at
	// the address the restarted replica gives.
	st4, err := Join(ctx, srv.URL, "r9", "127.0.0.1:5400")
	if err != nil {
		t.Fatalf("re-Join: %v", err)
	}
	if len(st4.Members) != 2 || st4.Epoch != st3.Epoch+1 {
		t.Fatalf("rejoin: %d members at epoch %d, want 2 at %d", len(st4.Members), st4.Epoch, st3.Epoch+1)
	}
	if r9 := member(st4, "r9"); r9.Addr != "127.0.0.1:5400" || r9.State != "active" {
		t.Fatalf("rejoined member: %+v", r9)
	}

	// An unknown replica 404s.
	if err := AnnounceDrain(ctx, srv.URL, "nope"); err == nil {
		t.Fatal("draining an unknown replica succeeded")
	}
}

// member picks id out of a state snapshot.
func member(st *State, id string) MemberInfo {
	for _, m := range st.Members {
		if m.ID == id {
			return m
		}
	}
	return MemberInfo{}
}

// TestClusterRESTJoinRefusesUnresolvable: a join whose address does not
// resolve is refused with 400 and admits nothing. Admitted, it would own a
// share of the ring that every forward fails on until the failure limit
// marks it down.
func TestClusterRESTJoinRefusesUnresolvable(t *testing.T) {
	cl := restCluster(t)
	srv := httptest.NewServer(cl.RESTHandler())
	defer srv.Close()
	ctx := context.Background()
	before := cl.StateSnapshot()

	for _, addr := range []string{"127.0.0.1", "127.0.0.1:99999"} {
		_, err := Join(ctx, srv.URL, "r9", addr)
		if err == nil || !strings.Contains(err.Error(), "400 Bad Request") {
			t.Errorf("join at %q: %v, want 400 Bad Request", addr, err)
		}
	}
	if after := cl.StateSnapshot(); after.Epoch != before.Epoch || len(after.Members) != 1 {
		t.Fatalf("refused joins changed the cluster: %d members at epoch %d, want 1 at %d", len(after.Members), after.Epoch, before.Epoch)
	}
	if err := cl.AddRemote("r9", "127.0.0.1"); err == nil {
		t.Fatal("AddRemote admitted an address without a port")
	}
}

// TestClusterRESTRefusesLocalDrainAndLeave: /drain and /leave speak for
// remote members. A local replica's id is refused with 409 and changes
// nothing; accepted, it would take the replica out of rotation for good,
// since /join refuses a local id and no route rejoins one.
func TestClusterRESTRefusesLocalDrainAndLeave(t *testing.T) {
	cl := restCluster(t)
	srv := httptest.NewServer(cl.RESTHandler())
	defer srv.Close()
	ctx := context.Background()
	before, err := FetchState(ctx, srv.URL)
	if err != nil {
		t.Fatalf("FetchState: %v", err)
	}

	for name, announce := range map[string]func(context.Context, string, string) error{
		"drain": AnnounceDrain, "leave": AnnounceLeave,
	} {
		if err := announce(ctx, srv.URL, "r0"); err == nil || !strings.Contains(err.Error(), "409 Conflict") {
			t.Errorf("%s of local r0: %v, want 409 Conflict", name, err)
		}
	}
	after, err := FetchState(ctx, srv.URL)
	if err != nil {
		t.Fatalf("FetchState: %v", err)
	}
	if r0 := member(after, "r0"); r0.State != "active" || after.Epoch != before.Epoch {
		t.Fatalf("r0 %s at epoch %d after refused announcements, want active at %d", r0.State, after.Epoch, before.Epoch)
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
