package dnswire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Stream framing (RFC 1035 §4.2.2): over TCP — and the transports layered on
// it, TLS for DoT — every DNS message is preceded by a two-octet big-endian
// length. These helpers are shared by every stream user in the tree: the
// front door in internal/transport and its stream clients.

// ErrStreamFrameTooLarge is returned when a message does not fit the 16-bit
// length prefix.
var ErrStreamFrameTooLarge = fmt.Errorf("dnswire: message exceeds the %d-byte stream frame limit", 0xFFFF)

// WriteStream frames and writes one message. The length prefix and payload
// go out in a single Write so interleaved writers on a shared connection
// (a pipelining server answering out of order) never produce a torn frame.
func (m *Message) WriteStream(w io.Writer) error {
	wire, err := m.AppendStream(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(wire)
	return err
}

// AppendStream appends the two-byte length prefix and the packed message to
// buf, returning the extended slice. Like AppendPack, compression pointers
// are relative to the message start, so the frame is position-independent.
func (m *Message) AppendStream(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0) // length backpatched below
	wire, err := m.AppendPack(buf)
	if err != nil {
		return nil, err
	}
	n := len(wire) - start - 2
	if n > 0xFFFF {
		return nil, ErrStreamFrameTooLarge
	}
	binary.BigEndian.PutUint16(wire[start:], uint16(n))
	return wire, nil
}

// ReadStream reads one length-prefixed message from r.
func ReadStream(r io.Reader) (*Message, error) {
	var length [2]byte
	if _, err := io.ReadFull(r, length[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint16(length[:]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return Unpack(buf)
}
