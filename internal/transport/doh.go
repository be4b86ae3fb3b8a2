package transport

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// dohContentType is the RFC 8484 §6 media type for DNS wire format in
// HTTP bodies, both directions.
const dohContentType = "application/dns-message"

// DoHPath is the conventional query endpoint (RFC 8484 §4.1.1 examples).
const DoHPath = "/dns-query"

// dohMaxBodySize bounds POST bodies; a DNS message cannot exceed 64 KiB.
const dohMaxBodySize = maxUDPPayload

// dohReadHeaderTimeout bounds the wait for request headers on a new
// connection. This is deliberately its own constant rather than
// DefaultWriteTimeout: slow-header clients are an accept-path concern, not a
// response-write one.
const dohReadHeaderTimeout = 5 * time.Second

// dohShutdownGrace bounds how long a cancelled ServeDoH waits for in-flight
// requests to finish.
const dohShutdownGrace = 30 * time.Second

// ServeDoH serves RFC 8484 DNS-over-HTTPS on l until ctx is cancelled.
// With a nil tlsConf it speaks plain HTTP — useful behind a TLS-terminating
// proxy and for tests — otherwise HTTPS. Cancellation uses net/http's
// graceful Shutdown so in-flight requests complete.
func (s *Server) ServeDoH(ctx context.Context, l net.Listener, tlsConf *tls.Config) error {
	srv := &http.Server{
		Handler:           s.DoHHandler(),
		ReadHeaderTimeout: dohReadHeaderTimeout,
		IdleTimeout:       s.idle,
		// Requests outlive ctx cancellation until Shutdown's grace period
		// expires: drain means answering what is in flight, not aborting it.
		BaseContext: func(net.Listener) context.Context { return context.WithoutCancel(ctx) },
		ConnState: func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew:
				s.m.open[TransportDoH].Add(1)
			case http.StateClosed, http.StateHijacked:
				s.m.open[TransportDoH].Add(-1)
			}
		},
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), dohShutdownGrace)
			srv.Shutdown(sctx)
			cancel()
		case <-done:
		}
	}()

	var err error
	if tlsConf != nil {
		srv.TLSConfig = tlsConf
		err = srv.ServeTLS(l, "", "")
	} else {
		err = srv.Serve(l)
	}
	if errors.Is(err, http.ErrServerClosed) {
		return ctx.Err()
	}
	return err
}

// DoHHandler returns the http.Handler behind ServeDoH, exported so the
// endpoint can be mounted on an existing mux (e.g. next to /metrics).
func (s *Server) DoHHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(DoHPath, s.serveDoHQuery)
	return mux
}

// serveDoHQuery is the DoH door: it decodes a GET or POST into query bytes
// for the serve core and sends the answer with its HTTP headers. Unreadable
// bytes are a 400, never a DNS FORMERR.
func (s *Server) serveDoHQuery(w http.ResponseWriter, r *http.Request) {
	var raw []byte
	var err error
	switch r.Method {
	case http.MethodGet:
		b64 := r.URL.Query().Get("dns")
		if b64 == "" {
			s.dohError(w, http.StatusBadRequest, "missing dns query parameter")
			return
		}
		// RFC 8484 §6 mandates unpadded base64url; tolerate padding from
		// sloppy clients by stripping it first.
		if raw, err = base64.RawURLEncoding.DecodeString(strings.TrimRight(b64, "=")); err != nil {
			s.dohError(w, http.StatusBadRequest, "dns parameter is not valid base64url")
			return
		}
	case http.MethodPost:
		if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || mt != dohContentType {
			s.dohError(w, http.StatusUnsupportedMediaType, "Content-Type must be "+dohContentType)
			return
		}
		if raw, err = io.ReadAll(io.LimitReader(r.Body, dohMaxBodySize+1)); err != nil {
			s.dohError(w, http.StatusBadRequest, "reading request body failed")
			return
		}
		if len(raw) > dohMaxBodySize {
			s.dohError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("DNS message exceeds %d bytes", dohMaxBodySize))
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		s.dohError(w, http.StatusMethodNotAllowed, "use GET with ?dns= or POST "+dohContentType)
		return
	}

	wire, q, err := s.serveQuery(TransportDoH, raw, dohMaxBodySize, nil, nil)
	if err != nil {
		http.Error(w, "malformed DNS message", http.StatusBadRequest)
		return
	}
	s.m.queries[TransportDoH].Inc()
	if q != nil {
		resp := s.respond(r.Context(), TransportDoH, q) // counts its failure
		if resp == nil {
			http.Error(w, "query handling failed", http.StatusInternalServerError)
			return
		}
		if wire, err = resp.Pack(); err != nil {
			s.dohError(w, http.StatusInternalServerError, "response encoding failed")
			return
		}
	}
	w.Header().Set("Content-Type", dohContentType)
	w.Header().Set("Cache-Control", cacheControl(wire))
	w.Header().Set("Content-Length", strconv.Itoa(len(wire)))
	w.Write(wire)
}

// dohError sends an HTTP-level failure. DNS-level errors (SERVFAIL,
// NXDOMAIN, EDE-annotated anything) travel as 200s with a DNS payload per
// RFC 8484 §4.2.1; HTTP status codes are only for problems with the HTTP
// exchange itself.
func (s *Server) dohError(w http.ResponseWriter, status int, msg string) {
	s.m.errors[TransportDoH].Inc()
	http.Error(w, msg, status)
}

// cacheControl derives a packed answer's HTTP freshness from its DNS TTLs
// (RFC 8484 §5.1): cacheable for at most the smallest TTL in the answer
// section. Errors and empty answers are marked uncacheable so HTTP caches
// never pin a failure — negative caching stays the DNS layer's job.
func cacheControl(wire []byte) string {
	ttl, ok := dnswire.AnswerTTL(wire)
	if !ok {
		return "max-age=0"
	}
	return "max-age=" + strconv.FormatUint(uint64(ttl), 10)
}
