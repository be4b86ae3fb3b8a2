// Package transport is the client-facing multi-protocol front door: it owns
// every listener a real resolver deployment exposes and funnels all of them
// into one serve core (Server.serveQuery: scan, wire cache, parse). The core
// answers a query for an EDNS version other than 0 BADVERS (RFC 6891
// §6.1.3) and refuses a response, QR=1 (RFC 1035 §4.1.1): UDP drops it, a
// stream answers FORMERR, DoH HTTP 400.
//
// The paper's premise is that Extended DNS Errors reach real clients — and
// real clients at millions-of-users scale arrive over RFC 7858 DoT and
// RFC 8484 DoH, not bare UDP. This package serves the same netsim.Handler
// (usually internal/frontend's caching layer) over four transports:
//
//   - UDP (RFC 1035), with responses truncated to the client's advertised
//     EDNS(0) buffer size — TC=1 and a minimal answer section, never an
//     oversized datagram — while the OPT record and its EDE options survive
//     truncation so the diagnostic reaches the client even when the data
//     does not. When the handler is a router (WireRouter), a query owned
//     by a remote backend is relayed there and back as raw datagrams on
//     one batched socket per peer (relay.go); stream and DoH clients keep
//     the router's parsed forward.
//   - TCP (RFC 1035 §4.2.2 / RFC 7766), two-byte length framing with query
//     pipelining and out-of-order responses: wire-cache hits are answered
//     inline by the connection's reader and written out in batches; every
//     other query is handled concurrently and answered as soon as it
//     completes.
//   - DoT (RFC 7858): exactly the TCP stream core under crypto/tls.
//   - DoH (RFC 8484): GET with the base64url ?dns= form and POST with
//     application/dns-message on net/http; hits leave as wire-cache bytes,
//     with Cache-Control: max-age read from the answer's TTLs.
//
// The headline invariant, enforced by the conformance suite: for every
// testbed case the wire-visible RCODE, EDE codes, and EXTRA-TEXT are
// byte-identical across all four transports, including the CD-bit behaviour
// on bogus domains.
//
// It is also the only package that opens DNS sockets: the client side of
// each transport is here too (QueryUDP, QueryTCP, QueryDoT, QueryDoH for one
// exchange, StreamClient for a kept connection), and a source-level test in
// the module root fails if a server or client grows anywhere else. A handler
// needs no socket code of its own to be served: an authserver.Server put
// behind any door answers as it does on netsim. The commands name a door as
// an Endpoint (udp://, tcp://, tls:// or https:// and host:port), read by
// ParseEndpoint.
//
// Load shedding reuses the frontend's semantics: when a per-connection
// pipeline bound or a per-listener connection bound is exceeded, the excess
// query is answered SERVFAIL with EDE 23 (Network Error) rather than queued
// without bound. Idle and write deadlines bound connection lifetime, and
// cancelling the serve context drains all listeners gracefully: accepting
// stops, in-flight queries finish and their responses are written, then
// connections close.
package transport
