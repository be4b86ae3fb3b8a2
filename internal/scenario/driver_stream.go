package scenario

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"strings"
	"sync"

	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// trackingListener records every accepted connection so the kill-conns
// action can sever them server-side, simulating a peer that restarted or an
// idle-timeout firing mid-session.
type trackingListener struct {
	net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// killAll closes every accepted connection and forgets it.
func (l *trackingListener) killAll() int {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// streamDriver runs scenarios against a real front-door stream server: a
// transport.Server with TCP and DoT listeners on loopback, backed by one
// vendor-profile resolver over the Table 4 testbed, queried through
// transport.StreamClient — the redial-once path under test.
type streamDriver struct {
	*lab

	tcpLn, dotLn *trackingListener
	tcpClient    *transport.StreamClient
	dotClient    *transport.StreamClient

	cancel context.CancelFunc
	served sync.WaitGroup
}

func (d *streamDriver) setup(l *lab) error {
	d.lab = l
	if err := l.useTestbed(); err != nil {
		return err
	}
	prof, err := l.profile()
	if err != nil {
		return err
	}
	r := l.newResolver(prof)
	reg := l.reg
	r.RegisterMetrics(reg)
	srv := transport.NewServer(transport.Config{
		Handler:  forwarder.New(forwarder.ResolverUpstream{R: r}),
		Registry: reg,
	})

	tcpRaw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dotRaw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tcpRaw.Close()
		return err
	}
	cert, err := transport.SelfSignedCert("127.0.0.1")
	if err != nil {
		tcpRaw.Close()
		dotRaw.Close()
		return err
	}
	d.tcpLn = &trackingListener{Listener: tcpRaw}
	d.dotLn = &trackingListener{Listener: dotRaw}

	serveCtx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.served.Add(2)
	go func() {
		defer d.served.Done()
		srv.ServeTCP(serveCtx, d.tcpLn)
	}()
	go func() {
		defer d.served.Done()
		srv.ServeDoT(serveCtx, d.dotLn, &tls.Config{Certificates: []tls.Certificate{cert}})
	}()

	// A client holds its connection until the server drops it: the
	// scenario script, not wall time, decides when connections die.
	d.tcpClient = &transport.StreamClient{Addr: tcpRaw.Addr().String()}
	d.dotClient = &transport.StreamClient{
		Addr:      dotRaw.Addr().String(),
		TLSConfig: &tls.Config{InsecureSkipVerify: true},
	}

	reg.CounterFunc("edelab_scenario_stream_dials_total",
		"Connections the scenario's stream client has dialed (redials included).",
		d.tcpClient.Dials, telemetry.L("transport", "tcp"))
	reg.CounterFunc("edelab_scenario_stream_dials_total",
		"Connections the scenario's stream client has dialed (redials included).",
		d.dotClient.Dials, telemetry.L("transport", "dot"))
	return nil
}

func (d *streamDriver) close() {
	if d.tcpClient != nil {
		d.tcpClient.Close()
	}
	if d.dotClient != nil {
		d.dotClient.Close()
	}
	if d.cancel != nil {
		d.cancel()
	}
	if d.tcpLn != nil {
		d.tcpLn.Close()
	}
	if d.dotLn != nil {
		d.dotLn.Close()
	}
	d.served.Wait()
}

func (d *streamDriver) act(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "query":
		return d.query(ctx, a.Args, obs)
	case "kill-conns":
		which := "all"
		if len(a.Args) == 1 {
			which = a.Args[0]
		} else if len(a.Args) > 1 {
			return fmt.Errorf("kill-conns takes at most one of tcp|dot|all")
		}
		switch which {
		case "tcp":
			d.tcpLn.killAll()
		case "dot":
			d.dotLn.killAll()
		case "all":
			d.tcpLn.killAll()
			d.dotLn.killAll()
		default:
			return fmt.Errorf("kill-conns: unknown target %q", which)
		}
		return nil
	}
	return ErrUnknownAction
}

// query sends n sequential queries for a case over the chosen stream
// transport ("via=dot"; TCP is the default), recording each response. A
// transport-level failure records rcode ERROR — the hypothesis can assert it
// never happens (the redial-once path must absorb severed connections).
func (d *streamDriver) query(ctx context.Context, args []string, obs *observations) error {
	via := "tcp"
	var rest []string
	for _, arg := range args {
		if v, ok := strings.CutPrefix(arg, "via="); ok {
			via = v
			continue
		}
		rest = append(rest, arg)
	}
	label, n, err := queryArgs(rest)
	if err != nil {
		return err
	}
	var client *transport.StreamClient
	switch via {
	case "tcp":
		client = d.tcpClient
	case "dot":
		client = d.dotClient
	default:
		return fmt.Errorf("unknown transport %q", via)
	}
	c, err := d.caseFor(label)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		resp, err := client.Query(ctx, d.newQuery(c.Query))
		if err != nil {
			resp = nil
		}
		obs.record(fmt.Sprintf("%s@%s#%d", label, via, i+1), resp)
	}
	return nil
}
