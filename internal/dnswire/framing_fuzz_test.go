package dnswire

import (
	"bytes"
	"testing"
)

// FuzzTCPFraming throws arbitrary byte streams at the RFC 1035 §4.2.2 TCP
// framing layer (ReadStream / WriteStream). The invariants: reading never panics; any frame that reads
// successfully can be re-framed; and the re-framed bytes are a fixpoint —
// reading and writing them again reproduces them exactly. This is the layer a
// malicious or broken client talks to first, so it must be total.
func FuzzTCPFraming(f *testing.F) {
	// Seed with a well-formed framed query, a framed response with an OPT,
	// and the classic edge cases: empty, short length prefix, length prefix
	// promising more than the stream holds, zero-length frame.
	q := NewQuery(0x1234, MustName("valid.extended-dns-errors.com"), TypeA)
	var framed bytes.Buffer
	if err := q.WriteStream(&framed); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0x01, 0x02})
	f.Add([]byte{0x00, 0x00})
	// A whole frame whose payload does not parse (a header promising a
	// question that never comes): the front door answers this one FORMERR.
	f.Add([]byte{0x00, 0x0C, 0xDE, 0xAD, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return // malformed input must be rejected, never crash
		}
		var out bytes.Buffer
		if err := m.WriteStream(&out); err != nil {
			// Re-packing can legitimately fail only on the frame limit.
			return
		}
		m2, err := ReadStream(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-framed message does not read back: %v", err)
		}
		var out2 bytes.Buffer
		if err := m2.WriteStream(&out2); err != nil {
			t.Fatalf("second re-framing failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("framing is not a fixpoint:\n first: %x\nsecond: %x", out.Bytes(), out2.Bytes())
		}
	})
}
