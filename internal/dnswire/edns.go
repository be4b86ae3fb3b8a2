package dnswire

import (
	"encoding/hex"
	"fmt"
)

// OptionCode identifies an EDNS(0) option (RFC 6891 §6.1.2).
type OptionCode uint16

// Option codes relevant here. OptionCodeEDE is assigned to Extended DNS
// Errors by RFC 8914 §2.
const (
	OptionCodeNSID   OptionCode = 3
	OptionCodeCookie OptionCode = 10
	// OptionCodeTCPKeepalive is edns-tcp-keepalive (RFC 7828 §3): a server
	// advertises how long it will keep an idle TCP connection open, in units
	// of 100 milliseconds; clients send it empty to signal support.
	OptionCodeTCPKeepalive OptionCode = 11
	OptionCodeEDE          OptionCode = 15
)

func (c OptionCode) String() string {
	switch c {
	case OptionCodeNSID:
		return "NSID"
	case OptionCodeCookie:
		return "COOKIE"
	case OptionCodeTCPKeepalive:
		return "TCP-KEEPALIVE"
	case OptionCodeEDE:
		return "EDE"
	}
	return fmt.Sprintf("OPT%d", uint16(c))
}

// Option is a single EDNS(0) option.
type Option interface {
	Code() OptionCode
	// encodeOption appends the OPTION-DATA (without code/length).
	encodeOption(b *builder)
	String() string
}

// EDEOption is the Extended DNS Error option (RFC 8914 §2):
// a 16-bit INFO-CODE and optional UTF-8 EXTRA-TEXT.
type EDEOption struct {
	InfoCode  uint16
	ExtraText string
}

// Code implements Option.
func (EDEOption) Code() OptionCode { return OptionCodeEDE }

func (e EDEOption) encodeOption(b *builder) {
	b.uint16(e.InfoCode)
	b.str(e.ExtraText)
}

func (e EDEOption) String() string {
	if e.ExtraText == "" {
		return fmt.Sprintf("EDE %d", e.InfoCode)
	}
	return fmt.Sprintf("EDE %d: %q", e.InfoCode, e.ExtraText)
}

// TCPKeepaliveOption is edns-tcp-keepalive (RFC 7828 §3.1). In queries the
// TIMEOUT is omitted (HasTimeout false); in responses the server supplies an
// idle timeout in units of 100 milliseconds.
type TCPKeepaliveOption struct {
	HasTimeout bool
	Timeout    uint16 // idle timeout, 100ms units
}

// Code implements Option.
func (TCPKeepaliveOption) Code() OptionCode { return OptionCodeTCPKeepalive }

func (o TCPKeepaliveOption) encodeOption(b *builder) {
	if o.HasTimeout {
		b.uint16(o.Timeout)
	}
}

func (o TCPKeepaliveOption) String() string {
	if !o.HasTimeout {
		return "TCP-KEEPALIVE"
	}
	return fmt.Sprintf("TCP-KEEPALIVE %dms", uint32(o.Timeout)*100)
}

// RawOption carries an option this package does not model.
type RawOption struct {
	OptCode OptionCode
	Data    []byte
}

// Code implements Option.
func (o RawOption) Code() OptionCode { return o.OptCode }

func (o RawOption) encodeOption(b *builder) { b.bytes(o.Data) }

func (o RawOption) String() string {
	return fmt.Sprintf("%s %s", o.OptCode, hex.EncodeToString(o.Data))
}

// OPT is the EDNS(0) pseudo-RR (RFC 6891 §6.1). It is attached to Message as
// a first-class field rather than kept in the additional section; the codec
// maps it to and from the wire representation, where the class field carries
// the UDP payload size and the TTL field carries the extended RCODE bits,
// the EDNS version, and the DO flag.
type OPT struct {
	UDPSize       uint16
	ExtendedRCode uint8 // upper 8 bits of the 12-bit RCODE
	Version       uint8
	DO            bool // DNSSEC OK
	Options       []Option
}

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (o OPT) encode(b *builder) {
	for _, opt := range o.Options {
		b.uint16(uint16(opt.Code()))
		at := b.beginLength16()
		opt.encodeOption(b)
		b.endLength16(at)
	}
}

func (o OPT) String() string {
	s := fmt.Sprintf("EDNS0 udp=%d version=%d do=%t", o.UDPSize, o.Version, o.DO)
	for _, opt := range o.Options {
		s += "; " + opt.String()
	}
	return s
}

// ttlBits packs the extended-RCODE/version/flags into the OPT TTL field.
func (o OPT) ttlBits() uint32 {
	v := uint32(o.ExtendedRCode)<<24 | uint32(o.Version)<<16
	if o.DO {
		v |= 1 << 15
	}
	return v
}

func optFromWire(class Class, ttl uint32, options []Option) *OPT {
	return &OPT{
		UDPSize:       uint16(class),
		ExtendedRCode: uint8(ttl >> 24),
		Version:       uint8(ttl >> 16),
		DO:            ttl&(1<<15) != 0,
		Options:       options,
	}
}

// EDEs returns all Extended DNS Error options carried by the OPT RR, in
// wire order. A nil OPT yields nil.
func (o *OPT) EDEs() []EDEOption {
	if o == nil {
		return nil
	}
	var out []EDEOption
	for _, opt := range o.Options {
		if e, ok := opt.(EDEOption); ok {
			out = append(out, e)
		}
	}
	return out
}

// AddEDE appends an Extended DNS Error option.
func (o *OPT) AddEDE(infoCode uint16, extraText string) {
	o.Options = append(o.Options, EDEOption{InfoCode: infoCode, ExtraText: extraText})
}

func decodeOptions(p *parser, end int) ([]Option, error) {
	var opts []Option
	for p.off < end {
		code, err := p.uint16()
		if err != nil {
			return nil, err
		}
		length, err := p.uint16()
		if err != nil {
			return nil, err
		}
		data, err := p.bytes(int(length))
		if err != nil {
			return nil, err
		}
		switch OptionCode(code) {
		case OptionCodeTCPKeepalive:
			switch len(data) {
			case 0:
				opts = append(opts, TCPKeepaliveOption{})
			case 2:
				opts = append(opts, TCPKeepaliveOption{
					HasTimeout: true,
					Timeout:    uint16(data[0])<<8 | uint16(data[1]),
				})
			default:
				return nil, fmt.Errorf("dnswire: TCP-KEEPALIVE option must be 0 or 2 octets, got %d", len(data))
			}
		case OptionCodeEDE:
			if len(data) < 2 {
				return nil, fmt.Errorf("dnswire: EDE option shorter than 2 octets")
			}
			opts = append(opts, EDEOption{
				InfoCode:  uint16(data[0])<<8 | uint16(data[1]),
				ExtraText: string(data[2:]),
			})
		default:
			raw := make([]byte, len(data))
			copy(raw, data)
			opts = append(opts, RawOption{OptCode: OptionCode(code), Data: raw})
		}
	}
	return opts, nil
}
