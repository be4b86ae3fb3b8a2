package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// ttlMsg builds a response with RRs in every section plus an OPT, so the
// offset recorder has to distinguish real TTL fields from the OPT pseudo-TTL.
func ttlMsg() *Message {
	m := &Message{
		ID:       0x1234,
		Response: true,
		Question: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassIN}},
		Answer: []RR{
			{Name: "www.example.com.", Class: ClassIN, TTL: 300,
				Data: CNAME{Target: "host.example.com."}},
			{Name: "host.example.com.", Class: ClassIN, TTL: 60,
				Data: A{Addr: netip.MustParseAddr("192.0.2.1")}},
		},
		Authority: []RR{
			{Name: "example.com.", Class: ClassIN, TTL: 3600,
				Data: NS{Host: "ns1.example.com."}},
		},
		Additional: []RR{
			{Name: "ns1.example.com.", Class: ClassIN, TTL: 7200,
				Data: A{Addr: netip.MustParseAddr("192.0.2.53")}},
		},
		OPT: &OPT{UDPSize: 1232, DO: true},
	}
	m.AddEDE(3, "stale answer")
	return m
}

func TestAppendPackTTLOffsets(t *testing.T) {
	m := ttlMsg()
	wire, offs, err := m.AppendPackTTLOffsets(nil, nil)
	if err != nil {
		t.Fatalf("AppendPackTTLOffsets: %v", err)
	}
	plain, err := m.AppendPack(nil)
	if err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	if !bytes.Equal(wire, plain) {
		t.Fatalf("TTL-recording pack produced different bytes than AppendPack")
	}
	if want := len(m.Answer) + len(m.Authority) + len(m.Additional); len(offs) != want {
		t.Fatalf("got %d TTL offsets, want %d (OPT TTL must not be recorded)", len(offs), want)
	}
	wantTTLs := []uint32{300, 60, 3600, 7200}
	for i, off := range offs {
		if int(off)+4 > len(wire) {
			t.Fatalf("offset %d out of range (len %d)", off, len(wire))
		}
		got := binary.BigEndian.Uint32(wire[off:])
		if got != wantTTLs[i] {
			t.Errorf("offset %d: TTL at offset = %d, want %d", i, got, wantTTLs[i])
		}
	}
}

// TestAppendPackTTLOffsetsPatch proves the offsets are sufficient to decay
// TTLs in place: patching each slot and unpacking yields the decayed values
// with everything else untouched.
func TestAppendPackTTLOffsetsPatch(t *testing.T) {
	m := ttlMsg()
	wire, offs, err := m.AppendPackTTLOffsets(nil, nil)
	if err != nil {
		t.Fatalf("AppendPackTTLOffsets: %v", err)
	}
	const age = 45
	for _, off := range offs {
		ttl := binary.BigEndian.Uint32(wire[off:])
		if ttl > age {
			ttl -= age
		} else {
			ttl = 1
		}
		binary.BigEndian.PutUint32(wire[off:], ttl)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack(patched): %v", err)
	}
	for i, want := range []uint32{255, 15} {
		if got.Answer[i].TTL != want {
			t.Errorf("answer[%d].TTL = %d, want %d", i, got.Answer[i].TTL, want)
		}
	}
	if got.Authority[0].TTL != 3555 {
		t.Errorf("authority TTL = %d, want 3555", got.Authority[0].TTL)
	}
	if got.Additional[0].TTL != 7155 {
		t.Errorf("additional TTL = %d, want 7155", got.Additional[0].TTL)
	}
	// The OPT must be untouched: DO bit, UDP size, and the EDE all survive.
	if got.OPT == nil || !got.OPT.DO || got.OPT.UDPSize != 1232 {
		t.Fatalf("OPT corrupted by TTL patch: %+v", got.OPT)
	}
	if codes := got.EDECodes(); len(codes) != 1 || codes[0] != 3 {
		t.Errorf("EDE codes after patch = %v, want [3]", codes)
	}
}

// TestAppendPackTTLOffsetsReuse checks the offs slice is reused, not
// reallocated, when capacity suffices — the wire cache depends on this for
// its alloc budget.
func TestAppendPackTTLOffsetsReuse(t *testing.T) {
	m := ttlMsg()
	offs := make([]uint16, 0, 16)
	_, got, err := m.AppendPackTTLOffsets(nil, offs)
	if err != nil {
		t.Fatalf("AppendPackTTLOffsets: %v", err)
	}
	if &got[:1][0] != &offs[:1][0] {
		t.Errorf("offsets slice was reallocated despite sufficient capacity")
	}
}

func TestTCPKeepaliveOptionRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opt  TCPKeepaliveOption
	}{
		{"empty (query form)", TCPKeepaliveOption{}},
		{"timeout (response form)", TCPKeepaliveOption{HasTimeout: true, Timeout: 120}},
		{"zero timeout", TCPKeepaliveOption{HasTimeout: true, Timeout: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Message{
				ID:       7,
				Question: []Question{{Name: "example.com.", Type: TypeA, Class: ClassIN}},
				OPT:      &OPT{UDPSize: 1232, Options: []Option{tc.opt}},
			}
			wire, err := m.Pack()
			if err != nil {
				t.Fatalf("Pack: %v", err)
			}
			got, err := Unpack(wire)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			var found *TCPKeepaliveOption
			for _, o := range got.OPT.Options {
				if ka, ok := o.(TCPKeepaliveOption); ok {
					found = &ka
				}
			}
			if found == nil {
				t.Fatalf("keepalive option lost in round trip: %+v", got.OPT)
			}
			if *found != tc.opt {
				t.Errorf("round trip = %+v, want %+v", *found, tc.opt)
			}
		})
	}
}

func TestTCPKeepaliveOptionBadLength(t *testing.T) {
	m := &Message{
		ID:       7,
		Question: []Question{{Name: "example.com.", Type: TypeA, Class: ClassIN}},
		OPT: &OPT{UDPSize: 1232, Options: []Option{
			RawOption{OptCode: OptionCodeTCPKeepalive, Data: []byte{1}},
		}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if _, err := Unpack(wire); err == nil {
		t.Fatalf("Unpack accepted 1-octet TCP-KEEPALIVE option")
	}
}

// TestUnmodelledOptionDecodesRaw: an option this package does not model —
// REPORT-CHANNEL (18, RFC 9567) among them — comes back as its raw bytes
// whatever they hold, as RFC 6891 §6.1.2 asks of an unknown option.
func TestUnmodelledOptionDecodesRaw(t *testing.T) {
	want := RawOption{OptCode: 18, Data: []byte{0xff}} // not a valid domain name
	m := &Message{
		ID:       7,
		Question: []Question{{Name: "example.com.", Type: TypeA, Class: ClassIN}},
		OPT:      &OPT{UDPSize: 1232, Options: []Option{want}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(got.OPT.Options) != 1 || !reflect.DeepEqual(got.OPT.Options[0], want) {
		t.Errorf("options = %#v, want [%#v]", got.OPT.Options, want)
	}
}
