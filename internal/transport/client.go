package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Client-side query helpers, one per transport, used by ededig, the
// conformance suite, and the CI smoke job.

// QueryUDP sends one query to addr over UDP and parses the first datagram
// that comes back, honouring ctx's deadline. The receive buffer holds the
// largest datagram UDP can carry, so the answer is never cut short by the
// client whatever buffer size q advertises; a TC=1 answer is returned as
// it is — retrying over QueryTCP is the caller's decision.
func QueryUDP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			return nil, err
		}
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return dnswire.Unpack(buf[:n])
}

// QueryTCP sends one framed query over a fresh TCP connection and reads
// one response.
func QueryTCP(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return streamExchange(ctx, conn, q)
}

// QueryDoT sends one framed query over a fresh TLS connection. A nil
// tlsConf verifies against the system roots; tests and self-signed labs
// pass one with RootCAs or InsecureSkipVerify set.
func QueryDoT(ctx context.Context, addr string, tlsConf *tls.Config, q *dnswire.Message) (*dnswire.Message, error) {
	d := tls.Dialer{Config: tlsConf}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return streamExchange(ctx, conn, q)
}

// streamExchange is exchangeKeep on a connection it then closes.
func streamExchange(ctx context.Context, conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	defer conn.Close()
	return exchangeKeep(ctx, conn, q)
}

// QueryDoH sends q to a DoH endpoint URL (e.g. https://host/dns-query).
// With post it uses the POST application/dns-message form, otherwise the
// GET base64url ?dns= form. A nil client uses http.DefaultClient.
func QueryDoH(ctx context.Context, client *http.Client, endpoint string, q *dnswire.Message, post bool) (*dnswire.Message, error) {
	if client == nil {
		client = http.DefaultClient
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}

	var req *http.Request
	if post {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(wire))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", dohContentType)
	} else {
		u, perr := url.Parse(endpoint)
		if perr != nil {
			return nil, perr
		}
		vals := u.Query()
		vals.Set("dns", base64.RawURLEncoding.EncodeToString(wire))
		u.RawQuery = vals.Encode()
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return nil, err
		}
	}
	req.Header.Set("Accept", dohContentType)

	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, dohMaxBodySize+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("transport: DoH endpoint returned %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != dohContentType {
		return nil, fmt.Errorf("transport: DoH endpoint returned Content-Type %q, want %q", ct, dohContentType)
	}
	return dnswire.Unpack(body)
}
