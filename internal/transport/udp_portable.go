//go:build !linux || (!amd64 && !arm64)

package transport

import "net"

// newUDPIO on platforms without batched-syscall support: one datagram per
// round, same semantics.
func newUDPIO(conn net.PacketConn, _ int) udpIO { return newOneIO(conn, udpQuerySlot) }

// newPeerIO is the I/O of a relay's connected peer socket. Its slot holds
// the longest answer, which it relays unparsed.
func newPeerIO(conn *net.UDPConn, _ int) (udpReceiver, udpSender, error) {
	return newOneIO(conn, maxUDPPayload), &oneSender{conn: conn}, nil
}

// newUDPSender is a sender on conn beside whatever else drives it.
func newUDPSender(conn *net.UDPConn, _ int) (udpSender, error) {
	return &oneSender{conn: conn}, nil
}

// netAddr returns a saved address.
func (a *udpAddr) netAddr() net.Addr { return a.addr }

// oneSender is the portable udpSender: one datagram per flush.
type oneSender struct {
	conn *net.UDPConn
	to   *udpAddr
	wire []byte
}

func (o *oneSender) queueTo(to *udpAddr, wire []byte) { o.to, o.wire = to, wire }

func (o *oneSender) flush() error {
	if o.wire == nil {
		return nil
	}
	var err error
	if o.to == nil {
		_, err = o.conn.Write(o.wire)
	} else {
		_, err = o.conn.WriteTo(o.wire, o.to.addr)
	}
	o.to, o.wire = nil, nil
	return err
}
