package transport

import (
	"context"
	"errors"
	"net/netip"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Transport labels, shared by metrics and logging.
const (
	TransportUDP = "udp"
	TransportTCP = "tcp"
	TransportDoT = "dot"
	TransportDoH = "doh"
)

// Serving bounds. A stream connection accepted past maxConns has its first
// query answered, from the wire cache or else SERVFAIL + EDE 23, and is
// closed; a query read past maxPipeline on one connection, or a datagram
// past maxUDPInflight on one UDP listener, is answered SERVFAIL + EDE 23.
const (
	maxConns       = 1024
	maxPipeline    = 64
	maxUDPInflight = 512
)

// defaultIdleTimeout closes a stream connection with no complete query when
// the server advertises no edns-tcp-keepalive TIMEOUT.
const defaultIdleTimeout = 30 * time.Second

// DefaultWriteTimeout bounds each response write, and a client stream
// exchange (StreamClient, QueryTCP, QueryDoT) whose context has no deadline.
const DefaultWriteTimeout = 5 * time.Second

// udpWorkers sizes the fixed goroutine pool each UDP read loop feeds its
// slow-path queries to (wire fast-path hits are answered inline by the read
// loop).
const udpWorkers = 8

// WireServer is the optional serving fast path: a handler that can answer
// a scanned query straight from pre-packed response bytes, appended to dst
// within limit. ok=false sends the query down the full Handler path. The
// frontend's wire cache implements this.
type WireServer interface {
	ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool)
}

// WireRouter is the optional extension of WireServer a router in front of
// remote backends implements: for a query ServeWire declined, RouteWire
// names the peer whose answer the client should get, and the UDP front
// door relays the datagram there and the answer back without parsing
// either (relay.go). ok=false keeps the query on the full Handler path.
type WireRouter interface {
	WireServer
	RouteWire(q dnswire.WireQuery) (RelayPeer, bool)
	// RelayTimeout is how long a relayed query may wait for the peer's
	// answer before it is reported failed and handed to Handler instead.
	RelayTimeout() time.Duration
}

// RelayPeer is one remote backend as RouteWire named it for one query.
// Every RelayPeer RouteWire returns is paired with exactly one Done, so the
// router can keep per-peer in-flight and failure accounting.
type RelayPeer interface {
	// Addr is the peer's UDP address.
	Addr() netip.AddrPort
	Done(RelayOutcome)
}

// RelayOutcome is how one relayed query ended.
type RelayOutcome int

const (
	// RelayAnswered: the peer's answer was sent on to the client.
	RelayAnswered RelayOutcome = iota
	// RelayFailed: no answer within RelayTimeout, or the peer socket
	// failed; the query went to Handler.
	RelayFailed
	// RelayAbandoned: the relay gave the query up for a reason that says
	// nothing about the peer (pending table full, listener stopped).
	RelayAbandoned
)

// Config configures a front-door Server.
type Config struct {
	// Handler serves every query, regardless of transport.
	Handler netsim.Handler

	// Wire, when set, answers compatible queries from pre-packed response
	// bytes before Handler is consulted. When nil, NewServer uses Handler
	// itself if it implements WireServer; DisableWire forces every query
	// down the full path (for A/B measurement and ablation).
	Wire        WireServer
	DisableWire bool

	// TCPKeepalive, when positive, is the idle timeout advertised to EDNS
	// clients on stream transports via edns-tcp-keepalive (RFC 7828),
	// rounded down to 100ms units, and the one enforced: a stream
	// connection, or a DoH client's HTTP connection, with no complete query
	// for that long is closed. Zero advertises nothing and closes idle
	// connections after 30 s.
	TCPKeepalive time.Duration

	// Registry receives the per-transport metrics; nil disables exposition
	// (counters still work against a private registry).
	Registry *telemetry.Registry
}

// Server serves one netsim.Handler over UDP, TCP, DoT, and DoH. All
// Serve* methods block until their context is cancelled or the listener
// fails, and drain in-flight queries before returning.
type Server struct {
	cfg       Config
	wire      WireServer    // nil when the wire fast path is off
	router    WireRouter    // wire, when it can also route to remote peers
	keepalive uint16        // cfg.TCPKeepalive in RFC 7828 units; 0 advertises nothing
	idle      time.Duration // what keepalive advertises, or defaultIdleTimeout
	m         *metrics
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Handler == nil {
		panic("transport: Config.Handler must not be nil")
	}
	wire := cfg.Wire
	if wire == nil {
		if ws, ok := cfg.Handler.(WireServer); ok {
			wire = ws
		}
	}
	if cfg.DisableWire {
		wire = nil
	}
	router, _ := wire.(WireRouter)
	s := &Server{cfg: cfg, wire: wire, router: router, keepalive: keepaliveUnits(cfg.TCPKeepalive), idle: defaultIdleTimeout, m: newMetrics(cfg.Registry)}
	if s.keepalive != 0 {
		s.idle = time.Duration(s.keepalive) * 100 * time.Millisecond
	}
	return s
}

// errResponse refuses a message with QR set: it is a response, not a query
// (RFC 1035 §4.1.1), and answering one would let two servers reflect
// packets at each other. The UDP door drops it; the stream doors answer it
// as unreadable, FORMERR, and DoH with HTTP 400.
var errResponse = errors.New("transport: message is a response (QR=1), not a query")

// isResponse reports whether data's header has QR set.
func isResponse(data []byte) bool { return len(data) > 2 && data[2]&0x80 != 0 }

// serveQuery is the serve core every door runs a client's query bytes
// through, so one question gets one answer at every door. It answers a
// scanned query from the wire cache within limit (0: the size the query's
// OPT advertises, a datagram door's), appending to dst; offers one the
// cache declines to hop, when the door has one; and parses the rest. A
// query whose OPT asks for an EDNS version other than 0 is answered BADVERS
// here (ScanQuery never takes one), before the handler can resolve or cache
// it. It returns the wire answer, or the parsed query for the door's slow
// path, or the error of bytes that are unreadable or not a query
// (errResponse); all nil means hop took the query. It counts wire serves
// and refused messages; the door counts queries.
func (s *Server) serveQuery(transport string, data []byte, limit int, dst []byte, hop func(dnswire.WireQuery) bool) ([]byte, *dnswire.Message, error) {
	if s.wire != nil {
		if wq, ok := dnswire.ScanQuery(data); ok {
			if limit == 0 {
				limit = udpLimit(wq.UDPSize)
			}
			if out, ok := s.wire.ServeWire(wq, limit, dst); ok {
				s.m.wireServes[transport].Inc()
				return out, nil, nil
			}
			if hop != nil && hop(wq) {
				return nil, nil, nil
			}
		}
	}
	if isResponse(data) {
		s.m.errors[transport].Inc()
		return nil, nil, errResponse
	}
	q, err := dnswire.Unpack(data)
	if err != nil {
		s.m.errors[transport].Inc()
		return nil, nil, err
	}
	if q.OPT != nil && q.OPT.Version != 0 {
		// RFC 6891 §6.1.3: BADVERS, in an OPT of version 0, the highest
		// this server implements.
		r := q.Reply()
		r.RCode = dnswire.RCodeBadVers
		r.RecursionAvailable = true
		wire, err := r.AppendPack(dst)
		return wire, nil, err
	}
	return nil, q, nil
}

// respond runs one query through the handler. A handler error or nil
// response yields nil: the transport stays silent, exactly as netsim
// models a dead server.
func (s *Server) respond(ctx context.Context, transport string, q *dnswire.Message) *dnswire.Message {
	resp, err := s.cfg.Handler.HandleDNS(ctx, q)
	if err != nil || resp == nil {
		s.m.errors[transport].Inc()
		return nil
	}
	return resp
}

// shedReply is the load-shedding response: SERVFAIL with EDE 23 (Network
// Error), matching the frontend's overload semantics so a client cannot
// distinguish where along the path the shed happened. The EDE is attached
// only for EDNS clients; a pre-EDNS client gets the bare SERVFAIL.
func shedReply(q *dnswire.Message, text string) *dnswire.Message {
	r := q.Reply()
	r.RCode = dnswire.RCodeServFail
	r.RecursionAvailable = true
	if q.OPT != nil {
		r.AddEDE(uint16(ede.CodeNetworkError), text)
	}
	return r
}
