package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

func scanProbe(t *testing.T, m *Message) ([]byte, WireQuery, bool) {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	q, ok := ScanQuery(wire)
	return wire, q, ok
}

func TestScanQueryAcceptsPlainQueries(t *testing.T) {
	cases := []struct {
		name string
		m    *Message
	}{
		{"bare query", &Message{ID: 1, RecursionDesired: true,
			Question: []Question{{Name: "example.com.", Type: TypeA, Class: ClassIN}}}},
		{"edns do", NewQuery(0xBEEF, "www.example.com.", TypeAAAA)},
		{"edns no-do cd", &Message{ID: 9, CheckingDisabled: true,
			Question: []Question{{Name: "cd.example.com.", Type: TypeTXT, Class: ClassIN}},
			OPT:      &OPT{UDPSize: 4096}}},
		{"root qname", &Message{ID: 2,
			Question: []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire, got, ok := scanProbe(t, tc.m)
			if !ok {
				t.Fatalf("ScanQuery rejected a plain query")
			}
			// The scan must agree with the full parser on every field.
			ref, err := Unpack(wire)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			if got.ID != ref.ID || got.RD != ref.RecursionDesired || got.CD != ref.CheckingDisabled {
				t.Errorf("header mismatch: scan %+v vs parsed %+v", got, ref)
			}
			if got.Name != ref.Question[0].Name || got.Type != ref.Question[0].Type || got.Class != ref.Question[0].Class {
				t.Errorf("question mismatch: scan %+v vs parsed %+v", got, ref.Question[0])
			}
			if got.HasEDNS != (ref.OPT != nil) || got.DO != ref.DO() {
				t.Errorf("EDNS mismatch: scan %+v vs OPT %+v", got, ref.OPT)
			}
			if ref.OPT != nil && got.UDPSize != ref.OPT.UDPSize {
				t.Errorf("UDPSize = %d, want %d", got.UDPSize, ref.OPT.UDPSize)
			}
		})
	}
}

func TestScanQueryRejects(t *testing.T) {
	base := func() *Message { return NewQuery(7, "example.com.", TypeA) }
	cases := []struct {
		name   string
		mangle func() []byte
	}{
		{"response bit", func() []byte {
			m := base()
			m.Response = true
			w, _ := m.Pack()
			return w
		}},
		{"non-query opcode", func() []byte {
			m := base()
			m.Opcode = OpcodeUpdate
			w, _ := m.Pack()
			return w
		}},
		{"two questions", func() []byte {
			m := base()
			m.Question = append(m.Question, Question{Name: "b.example.com.", Type: TypeA, Class: ClassIN})
			w, _ := m.Pack()
			return w
		}},
		{"answer present", func() []byte {
			m := base()
			m.Answer = []RR{{Name: "example.com.", Class: ClassIN, TTL: 1, Data: TXT{Strings: []string{"x"}}}}
			w, _ := m.Pack()
			return w
		}},
		{"edns option present", func() []byte {
			m := base()
			m.OPT.Options = []Option{TCPKeepaliveOption{}}
			w, _ := m.Pack()
			return w
		}},
		{"nonzero edns version", func() []byte {
			m := base()
			m.OPT.Version = 1
			w, _ := m.Pack()
			return w
		}},
		{"uppercase qname", func() []byte {
			m := base()
			w, _ := m.Pack()
			w[12+1] = 'E' // first label byte of "example"
			return w
		}},
		{"trailing bytes", func() []byte {
			m := base()
			w, _ := m.Pack()
			return append(w, 0)
		}},
		{"truncated header", func() []byte { return make([]byte, 11) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := ScanQuery(tc.mangle()); ok {
				t.Errorf("ScanQuery accepted %s", tc.name)
			}
		})
	}
}

// TestScanQueryAllocs pins the scan to its single allocation: the canonical
// qname string used as the cache key.
func TestScanQueryAllocs(t *testing.T) {
	wire, err := NewQuery(3, "alloc.example.com.", TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := ScanQuery(wire); !ok {
			t.Fatal("scan rejected")
		}
	})
	if allocs > 1 {
		t.Errorf("ScanQuery allocates %.1f times per call, want <= 1", allocs)
	}
}

// TestTrailingOPT: the offset points at the OPT that ends a packed message
// — behind compressed owners and rdata of every length — extending the OPT
// there yields what packing the extra option would have, and anything that
// is not a whole message ending in an OPT is refused.
func TestTrailingOPT(t *testing.T) {
	m := sampleFuzzResponse()
	m.Answer = []RR{{Name: m.Question[0].Name, Class: ClassIN, TTL: 60, Data: A{Addr: netip.MustParseAddr("192.0.2.7")}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	off, ok := TrailingOPT(wire)
	if !ok {
		t.Fatal("TrailingOPT refused a packed response with an OPT")
	}
	if wire[off] != 0 || Type(binary.BigEndian.Uint16(wire[off+1:])) != TypeOPT {
		t.Fatalf("offset %d is not an OPT owner: % x", off, wire[off:off+3])
	}
	if rdlen := int(binary.BigEndian.Uint16(wire[off+9:])); off+11+rdlen != len(wire) {
		t.Fatalf("RDLENGTH %d at offset %d does not reach the end of the %d-byte message", rdlen, off+9, len(wire))
	}

	extended := append(append([]byte(nil), wire...), 0, byte(OptionCodeTCPKeepalive), 0, 2, 0, 70)
	binary.BigEndian.PutUint16(extended[off+9:], binary.BigEndian.Uint16(wire[off+9:])+6)
	withOption := *m
	opt := *m.OPT
	opt.Options = append(opt.Options[:len(opt.Options):len(opt.Options)], TCPKeepaliveOption{HasTimeout: true, Timeout: 70})
	withOption.OPT = &opt
	if want, _ := withOption.Pack(); !bytes.Equal(extended, want) {
		t.Errorf("extending the OPT in place:\n got %x\nwant %x", extended, want)
	}

	for n := 0; n < len(wire); n++ {
		if _, ok := TrailingOPT(wire[:n]); ok {
			t.Fatalf("accepted the %d-byte prefix of a %d-byte message", n, len(wire))
		}
	}
	if _, ok := TrailingOPT(append(append([]byte(nil), wire...), 0)); ok {
		t.Error("accepted a message with a trailing byte")
	}
	m.OPT = nil
	m.RCode = RCodeServFail
	plain, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := TrailingOPT(plain); ok {
		t.Error("found an OPT in a message that ends in an NSEC3")
	}
	query, _ := (&Message{ID: 1, Question: m.Question}).Pack()
	if _, ok := TrailingOPT(query); ok {
		t.Error("found an OPT in a message with no records")
	}
}
