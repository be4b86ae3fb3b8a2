package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
)

// REST control plane: the primary exposes /api/cluster/* on its admin HTTP
// listener (telemetry.AdminHandler); a secondary fetches the epoch-numbered
// state snapshot, verifies the zone manifest, joins, and later announces
// drain and leave. A restarted secondary joins again under the same id.

// ZoneInfo names one replicated zone by content hash: zones are built
// deterministically on every replica, so replication is verification, not
// transfer — a secondary that hashes differently must not take traffic.
type ZoneInfo struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
}

// HashZoneText fingerprints a zone's canonical text form (zone.Zone.String)
// with FNV-1a for the manifest.
func HashZoneText(text string) string {
	h := fnv.New64a()
	io.WriteString(h, text)
	return fmt.Sprintf("%016x", h.Sum64())
}

// VerifyManifest checks that two manifests name the same zones with the
// same content hashes.
func VerifyManifest(local, remote []ZoneInfo) error {
	idx := make(map[string]string, len(local))
	for _, z := range local {
		idx[z.Name] = z.Hash
	}
	if len(local) != len(remote) {
		return fmt.Errorf("cluster: zone manifest mismatch: %d local zones vs %d remote", len(local), len(remote))
	}
	for _, z := range remote {
		lh, ok := idx[z.Name]
		if !ok {
			return fmt.Errorf("cluster: zone manifest mismatch: zone %q unknown locally", z.Name)
		}
		if lh != z.Hash {
			return fmt.Errorf("cluster: zone manifest mismatch: zone %q hash %s != %s", z.Name, lh, z.Hash)
		}
	}
	return nil
}

// MemberInfo is one member as the primary sees it.
type MemberInfo struct {
	ID     string `json:"id"`
	Addr   string `json:"addr,omitempty"`
	State  string `json:"state"`
	Local  bool   `json:"local"`
	Routed uint64 `json:"routed"`
}

// State is the cluster's membership snapshot. Epoch is its version: every
// join, drain, leave, kill and rejoin advances it by one.
type State struct {
	Epoch   uint64       `json:"epoch"`
	Zones   []ZoneInfo   `json:"zones"`
	Members []MemberInfo `json:"members"`
}

// StateSnapshot builds the current epoch snapshot.
func (c *Cluster) StateSnapshot() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{Epoch: c.epoch}
	if c.cfg.Manifest != nil {
		st.Zones = append(st.Zones, c.cfg.Manifest()...)
		sort.Slice(st.Zones, func(i, j int) bool { return st.Zones[i].Name < st.Zones[j].Name })
	}
	for _, nd := range c.members {
		st.Members = append(st.Members, MemberInfo{
			ID: nd.id, Addr: nd.addr, State: nd.st().String(), Local: nd.local != nil,
			Routed: nd.routed.Load(),
		})
	}
	return st
}

// RESTHandler returns the /api/cluster/* control plane, mounted on the admin
// HTTP listener: state, join, drain, leave, and one local replica's
// metrics.
func (c *Cluster) RESTHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/cluster/state", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, c.StateSnapshot())
	})
	mux.HandleFunc("/api/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
		}
		if !readJSON(w, r, &req) {
			return
		}
		if req.ID == "" || req.Addr == "" {
			http.Error(w, "id and addr required", http.StatusBadRequest)
			return
		}
		if err := c.AddRemote(req.ID, req.Addr); err != nil {
			code := http.StatusConflict
			if errors.Is(err, errUnresolvable) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		writeJSON(w, c.StateSnapshot())
	})
	// Drain and leave are a remote member's announcements. A local replica
	// is refused and left as it is: no route brings one back into rotation
	// (/join refuses a local id), so taking it out here would be for good.
	member := func(do func(id string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				ID string `json:"id"`
			}
			if !readJSON(w, r, &req) {
				return
			}
			if c.isLocal(req.ID) {
				http.Error(w, fmt.Sprintf("cluster: replica %q is local, only a remote member announces a drain or leave", req.ID), http.StatusConflict)
				return
			}
			if err := do(req.ID); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, c.StateSnapshot())
		}
	}
	mux.HandleFunc("/api/cluster/drain", member(c.MarkDraining))
	mux.HandleFunc("/api/cluster/leave", member(c.Kill))
	mux.HandleFunc("/api/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("replica")
		c.mu.Lock()
		reg := c.regs[id]
		c.mu.Unlock()
		if reg == nil {
			http.Error(w, "unknown local replica", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	return mux
}

// isLocal reports whether id names an in-process replica. A member's kind
// never changes once it is admitted.
func (c *Cluster) isLocal(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.findLocked(id)
	return nd != nil && nd.local != nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// --- client side (secondaries) ---

// FetchState GETs the primary's current epoch snapshot.
func FetchState(ctx context.Context, baseURL string) (*State, error) {
	var st State
	if err := doJSON(ctx, http.MethodGet, baseURL+"/api/cluster/state", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Join announces this replica to the primary and returns the state the
// primary replied with, this replica now among its members.
func Join(ctx context.Context, baseURL, id, addr string) (*State, error) {
	var st State
	req := map[string]string{"id": id, "addr": addr}
	if err := doJSON(ctx, http.MethodPost, baseURL+"/api/cluster/join", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// AnnounceDrain tells the primary to stop routing to id (SIGTERM step 1:
// the replica finishes its inflight queries while peers absorb its range).
func AnnounceDrain(ctx context.Context, baseURL, id string) error {
	return doJSON(ctx, http.MethodPost, baseURL+"/api/cluster/drain", map[string]string{"id": id}, nil)
}

// AnnounceLeave marks id down on the primary (SIGTERM step 2).
func AnnounceLeave(ctx context.Context, baseURL, id string) error {
	return doJSON(ctx, http.MethodPost, baseURL+"/api/cluster/leave", map[string]string{"id": id}, nil)
}

func doJSON(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
