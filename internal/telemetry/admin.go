package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Mount attaches an extra handler subtree to the admin plane — the cluster
// REST endpoints ride along this way without telemetry importing them.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// AdminHandler builds the admin HTTP plane:
//
//	/metrics       Prometheus text exposition
//	/healthz       liveness + process stats (+ caller extras)
//	/api/trace     sampled query-log traces (?name= substring, ?format=json)
//	/debug/pprof/  the standard Go profiler endpoints
//
// reg and tlog may be nil; the corresponding endpoints then report
// unavailability instead of panicking. Additional subtrees (e.g. the
// cluster control plane) mount via the variadic mounts.
func AdminHandler(reg *Registry, tlog *TraceLog, extra func() map[string]any, mounts ...Mount) http.Handler {
	started := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no registry", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":     "ok",
			"uptime":     time.Since(started).Round(time.Millisecond).String(),
			"goroutines": runtime.NumGoroutine(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		}
		if tlog != nil {
			body["traces_sampled"] = tlog.Total()
		}
		if extra != nil {
			for k, v := range extra() {
				body[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})

	mux.HandleFunc("/api/trace", func(w http.ResponseWriter, r *http.Request) {
		if tlog == nil {
			http.Error(w, "tracing disabled (start with -trace-sample > 0)", http.StatusServiceUnavailable)
			return
		}
		name := r.URL.Query().Get("name")
		t := tlog.Find(name)
		if t == nil {
			http.Error(w, fmt.Sprintf("no sampled trace matching %q (%d in log)", name, tlog.Total()), http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(t.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, t.Render())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
	}

	return mux
}

// adminReadHeaderTimeout bounds how long a connected client may dawdle
// before sending request headers. The admin plane is reachable from
// operators' networks; without this a half-open connection pins a
// goroutine forever.
const adminReadHeaderTimeout = 5 * time.Second

// ServeAdmin listens on addr and serves h until ctx is cancelled. It returns
// the bound address (useful with ":0") once the listener is up; serving
// continues in the background.
func ServeAdmin(ctx context.Context, addr string, h http.Handler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: adminReadHeaderTimeout}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
