// Package dnswire implements the DNS wire format (RFC 1035) together with
// EDNS(0) (RFC 6891) and the Extended DNS Errors option (RFC 8914).
//
// The package is self-contained: it parses and serializes complete DNS
// messages, including the resource record types needed for DNSSEC (RFC 4034)
// and hashed denial of existence (RFC 5155). It is the lowest layer of the
// edelab reproduction; everything above it (zones, servers, resolvers,
// scanners) exchanges *Message values built here.
package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Limits from RFC 1035 §2.3.4 and §3.1.
const (
	// MaxLabelLength is the maximum length of a single label in octets.
	MaxLabelLength = 63
	// MaxNameLength is the maximum length of a domain name in wire octets,
	// including the terminating zero label.
	MaxNameLength = 255
)

// Errors returned by name parsing and packing.
var (
	ErrNameTooLong   = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel    = errors.New("dnswire: empty label inside name")
	ErrBadEscape     = errors.New("dnswire: bad escape sequence in name")
	ErrBadPointer    = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop   = errors.New("dnswire: compression pointer loop")
	ErrTruncatedName = errors.New("dnswire: truncated domain name")
)

// A Name is a fully-qualified domain name in presentation form, always with a
// trailing dot and always lower-cased ("example.com."). The root is ".".
//
// Name values are produced by NewName (which validates and canonicalizes) or
// by the message parser. The zero value "" is invalid; use Root for the root.
type Name string

// Root is the root domain name.
const Root Name = "."

// NewName validates s as a domain name and returns its canonical form:
// lower case with a trailing dot. Escapes of the form \. and \DDD are
// understood. An empty string and "." both denote the root.
func NewName(s string) (Name, error) {
	labels, err := splitLabels(s)
	if err != nil {
		return "", err
	}
	total := 1 // terminating zero label
	var b strings.Builder
	for _, l := range labels {
		if len(l) > MaxLabelLength {
			return "", ErrLabelTooLong
		}
		if len(l) == 0 {
			return "", ErrEmptyLabel
		}
		total += len(l) + 1
		b.Write(lowerLabel(l))
		b.WriteByte('.')
	}
	if total > MaxNameLength {
		return "", ErrNameTooLong
	}
	if b.Len() == 0 {
		return Root, nil
	}
	return Name(b.String()), nil
}

// MustName is NewName that panics on error; for constants in tests and setup
// code where the input is known valid.
func MustName(s string) Name {
	n, err := NewName(s)
	if err != nil {
		panic(fmt.Sprintf("dnswire: MustName(%q): %v", s, err))
	}
	return n
}

// splitLabels splits a presentation-form name into raw label byte slices,
// handling \. and \DDD escapes.
func splitLabels(s string) ([][]byte, error) {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return nil, nil
	}
	var labels [][]byte
	var cur []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\\':
			if i+1 >= len(s) {
				return nil, ErrBadEscape
			}
			next := s[i+1]
			if next >= '0' && next <= '9' {
				if i+3 >= len(s) {
					return nil, ErrBadEscape
				}
				v := 0
				for j := 1; j <= 3; j++ {
					d := s[i+j]
					if d < '0' || d > '9' {
						return nil, ErrBadEscape
					}
					v = v*10 + int(d-'0')
				}
				if v > 255 {
					return nil, ErrBadEscape
				}
				cur = append(cur, byte(v))
				i += 3
			} else {
				cur = append(cur, next)
				i++
			}
		case '.':
			labels = append(labels, cur)
			cur = nil
		default:
			cur = append(cur, c)
		}
	}
	labels = append(labels, cur)
	return labels, nil
}

func lowerLabel(l []byte) []byte {
	out := make([]byte, len(l))
	for i, c := range l {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	// Re-escape bytes that are special in presentation form.
	var b []byte
	for _, c := range out {
		switch {
		case c == '.' || c == '\\':
			b = append(b, '\\', c)
		case c < '!' || c > '~':
			b = append(b, []byte(fmt.Sprintf("\\%03d", c))...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// IsRoot reports whether n is the root name.
func (n Name) IsRoot() bool { return n == Root }

// String returns the presentation form (Name is already presentation form).
func (n Name) String() string { return string(n) }

// Labels returns the labels of n from leftmost to rightmost, without the
// terminating root label. The root name has zero labels. It builds a slice;
// the per-query paths use Parent, TLD, LabelCount, WireLength, Compare and
// AppendWire, which walk the presentation string instead.
func (n Name) Labels() []string {
	s, ok := n.dotted()
	if !ok {
		return nil
	}
	var out []string
	for start := 0; ; {
		end := labelEnd(s, start)
		out = append(out, s[start:end])
		if end == len(s) {
			return out
		}
		start = end + 1
	}
}

// dotted returns n's labels joined by their separating dots — n without the
// trailing dot — and false for the root (and the invalid zero Name), which
// has no labels.
func (n Name) dotted() (string, bool) {
	if n.IsRoot() || n == "" {
		return "", false
	}
	return strings.TrimSuffix(string(n), "."), true
}

// labelEnd returns the index of the unescaped dot that ends the label
// starting at s[start], or len(s) for the last label of a dotted form.
func labelEnd(s string, start int) int {
	for i := start; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '.':
			return i
		}
	}
	return len(s)
}

// LabelCount returns the number of labels in n (0 for the root): what
// len(n.Labels()) would be, counted without building the slice.
func (n Name) LabelCount() int {
	s, ok := n.dotted()
	if !ok {
		return 0
	}
	count := 1
	for end := labelEnd(s, 0); end < len(s); end = labelEnd(s, end+1) {
		count++
	}
	return count
}

// Parent returns the name with the leftmost label removed; the parent of the
// root is the root. The result shares n's bytes.
func (n Name) Parent() Name {
	s, ok := n.dotted()
	if !ok {
		return Root
	}
	end := labelEnd(s, 0)
	if end == len(s) {
		return Root
	}
	if len(s) == len(n) {
		return Name(s[end+1:] + ".") // n lacked its trailing dot
	}
	return n[end+1:]
}

// Child returns the name formed by prepending label to n. It panics, like
// MustName, when the result is not a valid name.
func (n Name) Child(label string) Name {
	parent := string(n)
	if n.IsRoot() {
		parent = ""
	}
	s := label + "." + parent
	// A label that is already canonical needs no parse, and n's presentation
	// form is never shorter than its wire form, so len(s)+1 bounds the wire
	// length of the result from above. Anything else (escapes, upper case, a
	// name near the 255-octet limit) takes the validating path.
	if plainLabel(label) && len(s)+1 <= MaxNameLength {
		return Name(s)
	}
	return MustName(s)
}

// plainLabel reports whether label is one canonical label as NewName would
// emit it unchanged: 1–63 octets of lower-case letters, digits, '-' and '_'.
func plainLabel(label string) bool {
	if len(label) == 0 || len(label) > MaxLabelLength {
		return false
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' && c != '_' {
			return false
		}
	}
	return true
}

// IsSubdomainOf reports whether n is equal to or below parent.
func (n Name) IsSubdomainOf(parent Name) bool {
	if parent.IsRoot() {
		return true
	}
	if n == parent {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(parent))
}

// cutLastLabel splits a dotted form into its rightmost label and the dotted
// form of the labels before it; more is false when that was the only label.
func cutLastLabel(s string) (rest, label string, more bool) {
	start := 0
	for end := labelEnd(s, 0); end < len(s); end = labelEnd(s, start) {
		start = end + 1
	}
	if start == 0 {
		return "", s, false
	}
	return s[:start-1], s[start:], true
}

// WireLength returns the encoded length of n in octets without compression.
func (n Name) WireLength() int {
	var scratch [MaxNameLength]byte
	return len(n.AppendWire(scratch[:0]))
}

// AppendWire appends n's uncompressed wire form — each label as a length
// octet and its raw octets, then the zero root label — to dst. Name is
// already lower case, so this is also the canonical form DNSSEC signs and
// hashes (RFC 4034 §6.2). It is the one place presentation escapes are undone.
func (n Name) AppendWire(dst []byte) []byte {
	s, ok := n.dotted()
	for start := 0; ok; {
		end := labelEnd(s, start)
		at := len(dst)
		dst = appendLabelOctets(append(dst, 0), s[start:end])
		dst[at] = byte(len(dst) - at - 1)
		if end == len(s) {
			break
		}
		start = end + 1
	}
	return append(dst, 0)
}

// appendLabelOctets appends the raw octets of the presentation-form label l,
// undoing \. and \DDD.
func appendLabelOctets(dst []byte, l string) []byte {
	for i := 0; i < len(l); i++ {
		c := l[i]
		if c == '\\' && i+1 < len(l) {
			next := l[i+1]
			if next >= '0' && next <= '9' && i+3 < len(l) {
				c = byte(int(next-'0')*100 + int(l[i+2]-'0')*10 + int(l[i+3]-'0'))
				i += 3
			} else {
				c = next
				i++
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// Compare orders names in DNSSEC canonical order (RFC 4034 §6.1): by label
// from the rightmost, each label compared as lower-case octet strings.
// It returns -1, 0, or +1.
func (n Name) Compare(m Name) int {
	a, moreA := n.dotted()
	b, moreB := m.dotted()
	var bufA, bufB [MaxLabelLength]byte
	for {
		switch {
		case !moreA && !moreB:
			return 0
		case !moreA:
			return -1
		case !moreB:
			return 1
		}
		var la, lb string
		a, la, moreA = cutLastLabel(a)
		b, lb, moreB = cutLastLabel(b)
		if la == lb {
			continue
		}
		if c := bytes.Compare(appendLabelOctets(bufA[:0], la), appendLabelOctets(bufB[:0], lb)); c != 0 {
			return c
		}
	}
}
