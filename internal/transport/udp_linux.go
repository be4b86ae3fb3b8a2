//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"strconv"
	"syscall"
	"unsafe"
)

// Batched UDP I/O: recvmmsg/sendmmsg move up to udpBatchSize datagrams per
// syscall, raw (no new dependencies), integrated with the Go netpoller by
// issuing the syscalls non-blocking under RawConn.Read/Write — EAGAIN
// parks the goroutine on the poller instead of spinning.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the received
// (or sent) byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sockaddrBuf sizes each per-slot sender-address buffer.
const sockaddrBuf = syscall.SizeofSockaddrAny

// mmsgIO is the batched udpIO. All receive and response slots are fixed at
// construction: the kernel scatters one datagram per slot, responses are
// built in the paired response slots, and one sendmmsg flushes the lot,
// reusing the received sockaddrs verbatim — the fast path materializes no
// net.Addr at all. A datagram longer than its slot is cut to it and flagged
// MSG_TRUNC; a response longer than its slot is sent from wherever it grew.
// The receive half (recv, in, addr, saveAddr) and the send half (queue,
// queueTo, flush) share nothing but the RawConn, so a relay peer socket's
// halves are driven by two goroutines: its reader and the listener's read
// loop.
type mmsgIO struct {
	rc    syscall.RawConn
	batch int
	slot  int // bytes per receive slot

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []byte // batch × sockaddrBuf raw sender sockaddrs
	rbufs  []byte // batch × slot receive slots
	resps  []byte // batch × udpReplySlot response slots

	shdrs []mmsghdr
	siovs []syscall.Iovec
	nq    int

	// The callbacks RawConn.Read/Write run are built once and report
	// through these fields, so a round allocates nothing.
	recvmmsg func(fd uintptr) bool
	rn       int
	rerrno   syscall.Errno
	sendmmsg func(fd uintptr) bool
	sent, sn int
	serrno   syscall.Errno
}

// newMmsgSender builds the send half alone.
func newMmsgSender(conn *net.UDPConn, batch int) (*mmsgIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	m := &mmsgIO{
		rc:    rc,
		batch: batch,
		shdrs: make([]mmsghdr, batch),
		siovs: make([]syscall.Iovec, batch),
	}
	m.recvmmsg = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(m.batch),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the netpoller until readable
		}
		m.rn, m.rerrno = int(r1), e
		return true
	}
	m.sendmmsg = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&m.shdrs[m.sent])), uintptr(m.nq-m.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park until writable
		}
		m.sn, m.serrno = int(r1), e
		return true
	}
	return m, nil
}

// newMmsgReceiver adds the receive half, slots of slot bytes: everything
// but the response slots.
func newMmsgReceiver(conn *net.UDPConn, batch, slot int) (*mmsgIO, error) {
	m, err := newMmsgSender(conn, batch)
	if err != nil {
		return nil, err
	}
	m.slot = slot
	m.rhdrs = make([]mmsghdr, batch)
	m.riovs = make([]syscall.Iovec, batch)
	m.rnames = make([]byte, batch*sockaddrBuf)
	m.rbufs = make([]byte, batch*slot)
	for i := 0; i < batch; i++ {
		m.riovs[i].Base = &m.rbufs[i*slot]
		m.rhdrs[i].hdr.Iov = &m.riovs[i]
		m.rhdrs[i].hdr.Iovlen = 1
		m.rhdrs[i].hdr.Name = &m.rnames[i*sockaddrBuf]
	}
	return m, nil
}

func newMmsgIO(conn *net.UDPConn, batch int) (*mmsgIO, error) {
	m, err := newMmsgReceiver(conn, batch, udpQuerySlot)
	if err != nil {
		return nil, err
	}
	m.resps = make([]byte, batch*udpReplySlot)
	return m, nil
}

func (m *mmsgIO) recv() (int, error) {
	for i := 0; i < m.batch; i++ {
		m.riovs[i].Len = uint64(m.slot)
		m.rhdrs[i].hdr.Namelen = sockaddrBuf
		m.rhdrs[i].n = 0
	}
	if err := m.rc.Read(m.recvmmsg); err != nil {
		return 0, err
	}
	if m.rerrno != 0 {
		return 0, m.rerrno
	}
	return m.rn, nil
}

func (m *mmsgIO) in(i int) []byte {
	off := i * m.slot
	return m.rbufs[off : off+int(m.rhdrs[i].n)]
}

func (m *mmsgIO) oversized(i int) bool { return m.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 }

func (m *mmsgIO) respBuf(i int) []byte {
	off := i * udpReplySlot
	return m.resps[off : off : off+udpReplySlot]
}

// addr decodes slot i's raw sockaddr. Slow path only: the fast path sends
// responses with the raw sockaddr bytes untouched.
func (m *mmsgIO) addr(i int) net.Addr { return sockaddrToUDPAddr(m.rnames[i*sockaddrBuf:]) }

func (m *mmsgIO) saveAddr(i int, a *udpAddr) {
	sa := m.rnames[i*sockaddrBuf:]
	a.rawn = uint8(copy(a.raw[:], sa[:m.rhdrs[i].hdr.Namelen]))
}

// netAddr materializes a saved address (allocates; slow path only).
func (a *udpAddr) netAddr() net.Addr { return sockaddrToUDPAddr(a.raw[:]) }

// sockaddrToUDPAddr decodes a raw sockaddr_in or sockaddr_in6.
func sockaddrToUDPAddr(sa []byte) net.Addr {
	family := uint16(sa[0]) | uint16(sa[1])<<8 // native-endian; amd64/arm64 are LE
	switch family {
	case syscall.AF_INET:
		a := &net.UDPAddr{IP: make(net.IP, 4), Port: int(sa[2])<<8 | int(sa[3])}
		copy(a.IP, sa[4:8])
		return a
	case syscall.AF_INET6:
		a := &net.UDPAddr{IP: make(net.IP, 16), Port: int(sa[2])<<8 | int(sa[3])}
		copy(a.IP, sa[8:24])
		if scope := uint32(sa[24]) | uint32(sa[25])<<8 | uint32(sa[26])<<16 | uint32(sa[27])<<24; scope != 0 {
			a.Zone = strconv.FormatUint(uint64(scope), 10)
		}
		return a
	}
	return nil
}

func (m *mmsgIO) queue(i int, wire []byte) {
	m.queueRaw(&m.rnames[i*sockaddrBuf], m.rhdrs[i].hdr.Namelen, wire)
}

func (m *mmsgIO) queueTo(to *udpAddr, wire []byte) {
	if to == nil {
		m.queueRaw(nil, 0, wire) // connected socket
		return
	}
	m.queueRaw(&to.raw[0], uint32(to.rawn), wire)
}

// queueRaw arms wire for the raw sockaddr at name, which must stay put
// until flush.
func (m *mmsgIO) queueRaw(name *byte, namelen uint32, wire []byte) {
	j := m.nq
	m.siovs[j].Base = &wire[0]
	m.siovs[j].Len = uint64(len(wire))
	m.shdrs[j].hdr.Iov = &m.siovs[j]
	m.shdrs[j].hdr.Iovlen = 1
	m.shdrs[j].hdr.Name = name
	m.shdrs[j].hdr.Namelen = namelen
	m.shdrs[j].n = 0
	m.nq++
}

func (m *mmsgIO) flush() error {
	var err error
	for m.sent = 0; m.sent < m.nq; m.sent += m.sn {
		if err = m.rc.Write(m.sendmmsg); err == nil && m.serrno != 0 {
			err = m.serrno
		}
		if err != nil || m.sn <= 0 {
			break
		}
	}
	// A response that outgrew its slot is not kept past its send.
	clear(m.siovs[:m.nq])
	m.nq = 0
	return err
}

// newPeerIO is the I/O of a relay's connected peer socket. Its slots hold
// the longest answer, which it relays unparsed.
func newPeerIO(conn *net.UDPConn, batch int) (udpReceiver, udpSender, error) {
	m, err := newMmsgReceiver(conn, batch, maxUDPPayload)
	return m, m, err
}

// newUDPSender is a batched sender on conn beside whatever else drives it.
func newUDPSender(conn *net.UDPConn, batch int) (udpSender, error) {
	return newMmsgSender(conn, batch)
}

// newUDPIO picks batched I/O for real UDP sockets and falls back to
// single-datagram reads for anything else (test doubles, wrapped conns).
func newUDPIO(conn net.PacketConn, batch int) udpIO {
	if uc, ok := conn.(*net.UDPConn); ok {
		if m, err := newMmsgIO(uc, batch); err == nil {
			return m
		}
	}
	return newOneIO(conn, udpQuerySlot)
}
