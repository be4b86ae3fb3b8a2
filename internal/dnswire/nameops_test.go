package dnswire

import (
	"bytes"
	"strings"
	"testing"
)

// The reference implementations below are the Labels()-based name operations
// as they stood before Parent, TLD, LabelCount, WireLength, Compare and
// AppendWire learned to walk the presentation string. They build slices and
// decode every label into a fresh buffer, which is why they live here now.

func refLabels(n Name) []string {
	if n.IsRoot() || n == "" {
		return nil
	}
	s := strings.TrimSuffix(string(n), ".")
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '.':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func refUnescape(l string) []byte {
	var out []byte
	for i := 0; i < len(l); i++ {
		c := l[i]
		if c == '\\' && i+1 < len(l) {
			next := l[i+1]
			if next >= '0' && next <= '9' && i+3 < len(l) {
				v := int(next-'0')*100 + int(l[i+2]-'0')*10 + int(l[i+3]-'0')
				out = append(out, byte(v))
				i += 3
				continue
			}
			out = append(out, next)
			i++
			continue
		}
		out = append(out, c)
	}
	return out
}

func refParent(n Name) Name {
	labels := refLabels(n)
	if len(labels) <= 1 {
		return Root
	}
	return Name(strings.Join(labels[1:], ".") + ".")
}

func refTLD(n Name) string {
	labels := refLabels(n)
	if len(labels) == 0 {
		return ""
	}
	return labels[len(labels)-1]
}

func refWire(n Name) []byte {
	var out []byte
	for _, l := range refLabels(n) {
		raw := refUnescape(l)
		out = append(out, byte(len(raw)))
		out = append(out, raw...)
	}
	return append(out, 0)
}

func refCompare(n, m Name) int {
	a, b := refLabels(n), refLabels(m)
	for i := 1; ; i++ {
		ai, bi := len(a)-i, len(b)-i
		switch {
		case ai < 0 && bi < 0:
			return 0
		case ai < 0:
			return -1
		case bi < 0:
			return 1
		}
		if c := bytes.Compare(refUnescape(a[ai]), refUnescape(b[bi])); c != 0 {
			return c
		}
	}
}

// checkNameOps holds every walking operation on n (and Compare against m, in
// both directions) to its reference.
func checkNameOps(t *testing.T, n, m Name) {
	t.Helper()
	labels := refLabels(n)
	if got := n.Labels(); !equalStrings(got, labels) {
		t.Errorf("Labels(%q) = %q, want %q", n, got, labels)
	}
	if got := n.LabelCount(); got != len(labels) {
		t.Errorf("LabelCount(%q) = %d, want %d", n, got, len(labels))
	}
	if got, want := n.Parent(), refParent(n); got != want {
		t.Errorf("Parent(%q) = %q, want %q", n, got, want)
	}
	if got, want := n.TLD(), refTLD(n); got != want {
		t.Errorf("TLD(%q) = %q, want %q", n, got, want)
	}
	wire := refWire(n)
	if got := n.WireLength(); got != len(wire) {
		t.Errorf("WireLength(%q) = %d, want %d", n, got, len(wire))
	}
	prefix := []byte("kept")
	if got := n.AppendWire(prefix); !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], wire) {
		t.Errorf("AppendWire(%q) = %x, want the prefix and %x", n, got, wire)
	}
	if got, want := n.Compare(m), refCompare(n, m); got != want {
		t.Errorf("Compare(%q, %q) = %d, want %d", n, m, got, want)
	}
	if got, want := m.Compare(n), refCompare(m, n); got != want {
		t.Errorf("Compare(%q, %q) = %d, want %d", m, n, got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nameOpsSeeds are presentation strings that exercise every escape and both
// length limits.
func nameOpsSeeds() []string {
	label63 := strings.Repeat("a", 63)
	// 3×(1+63) + (1+61) + 1 = 255 octets, the longest legal name.
	name255 := label63 + "." + label63 + "." + label63 + "." + strings.Repeat("b", 61)
	return []string{
		".", "", "com", "example.com", "www.example.com.",
		`a\.b.example`, `a\\.example`, `a\\\.b.example`, `\000.child.tld`, `\255x.tld`,
		`x\046y.tld`, `*.wild.example`, `\..\..`, `\\`, `\..`,
		label63 + ".tld", name255,
		"UPPER.Case.Example", "a.b.c.d.e.f.g.h",
	}
}

// TestNameOps runs the seeds pairwise, canonicalised by NewName, and as raw
// Name values — which NewName would have rejected or rewritten, but which
// must not behave differently from the reference either.
func TestNameOps(t *testing.T) {
	seeds := nameOpsSeeds()
	var names []Name
	for _, s := range seeds {
		n, err := NewName(s)
		if err != nil {
			t.Fatalf("NewName(%q): %v", s, err)
		}
		names = append(names, n, Name(s))
	}
	names = append(names, `trailing\`, `a\1.b.`, `a\12`, `a..b.`, `.a.`, `a\.`, `\1234.x.`)
	for _, n := range names {
		for _, m := range names {
			checkNameOps(t, n, m)
		}
	}

	if got := MustName(nameOpsSeeds()[16]).WireLength(); got != MaxNameLength {
		t.Errorf("the 255-octet seed encodes to %d octets", got)
	}
	// Canonical order (RFC 4034 §6.1's example, plus an escaped label).
	ordered := []Name{".", "example.", "a.example.", "yljkjljk.a.example.", "z.a.example.",
		"zabc.a.example.", "z.example.", `\001.z.example.`, "*.z.example.", `\200.z.example.`}
	for i := range ordered {
		for j := range ordered {
			want := 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if got := ordered[i].Compare(ordered[j]); got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

// TestNameOpsAllocFree pins what the rewrite is for.
func TestNameOpsAllocFree(t *testing.T) {
	n, m := MustName(`\000.d012345.example.com`), MustName("d012346.example.com")
	buf := make([]byte, 0, MaxNameLength)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		sink += len(n.Parent()) + len(n.TLD()) + n.LabelCount() + n.WireLength() + n.Compare(m)
		buf = n.AppendWire(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Parent, TLD, LabelCount, WireLength, Compare and AppendWire allocate %.0f times, want 0", allocs)
	}
}

// FuzzNameOps holds the walking name operations to the Labels()-based
// reference on arbitrary strings, both raw and as NewName canonicalises them.
// Run with: go test -run=NONE -fuzz=FuzzNameOps ./internal/dnswire
func FuzzNameOps(f *testing.F) {
	seeds := nameOpsSeeds()
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkNameOps(t, Name(a), Name(b))
		n, errN := NewName(a)
		m, errM := NewName(b)
		if errN != nil || errM != nil {
			return
		}
		checkNameOps(t, n, m)
		// A canonical name survives the wire: AppendWire and the decoder are
		// inverses.
		got, next, err := decodeNameAt(n.AppendWire(nil), 0)
		if err != nil || got != n || next != n.WireLength() {
			t.Errorf("decodeNameAt(AppendWire(%q)) = %q, %d, %v", n, got, next, err)
		}
	})
}
