package transport

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Endpoint is one door named on a command line: the transport, by its URL
// scheme, and the host:port it listens on or dials.
//
//	udp://127.0.0.1:5353             RFC 1035 datagrams
//	udp://127.0.0.1:5353?reuseport=4 four SO_REUSEPORT sockets on one address
//	tcp://127.0.0.1:5353             RFC 7766 framed stream
//	tls://127.0.0.1:8853             DoT, RFC 7858
//	https://127.0.0.1:8443/dns-query DoH, RFC 8484 (the path may be left out)
//	127.0.0.1:5353                   udp
type Endpoint struct {
	Scheme    string // "udp", "tcp", "tls" or "https"
	Addr      string // host:port
	ReusePort int    // udp only: sockets sharing Addr, one read loop each; 0 when not given
}

// doorNames labels each scheme's door as dig-like tools print it.
var doorNames = map[string]string{"udp": "UDP", "tcp": "TCP", "tls": "DoT", "https": "DoH"}

// ParseEndpoint parses a door in the Endpoint syntax. It refuses an unknown
// scheme, an address without a port, a path other than DoHPath on https
// (and any path elsewhere), and any parameter but reuseport=N (N ≥ 1) on
// udp.
func ParseEndpoint(s string) (Endpoint, error) {
	if !strings.Contains(s, "://") {
		s = "udp://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return Endpoint{}, err
	}
	ep, q := Endpoint{Scheme: u.Scheme, Addr: u.Host}, u.Query()
	switch {
	case doorNames[u.Scheme] == "":
		err = fmt.Errorf("unknown scheme %q (want udp, tcp, tls or https)", u.Scheme)
	case u.Port() == "" || u.User != nil || u.Fragment != "":
		err = errors.New("want scheme://host:port")
	case u.Path != "" && (u.Scheme != "https" || u.Path != DoHPath):
		err = fmt.Errorf("path %q: only https takes one, %s", u.Path, DoHPath)
	case len(q) > 1 || (len(q) == 1 && (u.Scheme != "udp" || !q.Has("reuseport"))):
		err = errors.New("the one parameter is reuseport=N, on udp")
	case q.Has("reuseport"):
		if ep.ReusePort, err = strconv.Atoi(q.Get("reuseport")); err != nil || ep.ReusePort < 1 {
			err = fmt.Errorf("reuseport=%q, want a count ≥ 1", q.Get("reuseport"))
		}
	}
	if err != nil {
		return Endpoint{}, fmt.Errorf("endpoint %q: %w", s, err)
	}
	return ep, nil
}

// String is the endpoint in canonical form: always with its scheme, the
// DoH path on https, and reuseport when given. ParseEndpoint reads it back
// unchanged, and an https endpoint's String is its query URL.
func (e Endpoint) String() string {
	s := e.Scheme + "://" + e.Addr
	if e.Scheme == "https" {
		s += DoHPath
	}
	if e.ReusePort != 0 {
		s += "?reuseport=" + strconv.Itoa(e.ReusePort)
	}
	return s
}

// Door names the endpoint's transport: UDP, TCP, DoT or DoH.
func (e Endpoint) Door() string { return doorNames[e.Scheme] }
