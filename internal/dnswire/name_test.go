package dnswire

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewNameCanonicalizes(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{"", "."},
		{".", "."},
		{"a.b.c.d.e", "a.b.c.d.e."},
		{"xn--bcher-kva.example", "xn--bcher-kva.example."},
	}
	for _, c := range cases {
		n, err := NewName(c.in)
		if err != nil {
			t.Fatalf("NewName(%q): %v", c.in, err)
		}
		if string(n) != c.want {
			t.Errorf("NewName(%q) = %q, want %q", c.in, n, c.want)
		}
	}
}

func TestNewNameRejectsInvalid(t *testing.T) {
	long := strings.Repeat("a", 64)
	tooLong := strings.Repeat("abcdefgh.", 32) // 288 octets
	cases := []string{
		long + ".example.com",
		tooLong,
		"a..b",
		"trailing\\",
	}
	for _, c := range cases {
		if _, err := NewName(c); err == nil {
			t.Errorf("NewName(%q) succeeded, want error", c)
		}
	}
}

func TestNameEscapes(t *testing.T) {
	n, err := NewName(`a\.b.example`)
	if err != nil {
		t.Fatal(err)
	}
	labels := n.Labels()
	if len(labels) != 2 {
		t.Fatalf("got %d labels (%v), want 2", len(labels), labels)
	}
	if got := string(appendLabelOctets(nil, labels[0])); got != "a.b" {
		t.Errorf("first label = %q, want %q", got, "a.b")
	}
}

func TestNameHierarchy(t *testing.T) {
	n := MustName("www.example.com")
	if got := n.Parent(); got != MustName("example.com") {
		t.Errorf("Parent = %q", got)
	}
	if got := MustName("com").Parent(); got != Root {
		t.Errorf("Parent(com.) = %q, want root", got)
	}
	if got := Root.Parent(); got != Root {
		t.Errorf("Parent(.) = %q, want root", got)
	}
	if got := MustName("example.com").Child("www"); got != n {
		t.Errorf("Child = %q", got)
	}
	if got := Root.Child("com"); got != MustName("com") {
		t.Errorf("Child of root = %q", got)
	}
}

func TestIsSubdomainOf(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", ".", true},
		{"badexample.com", "example.com", false},
		{"com", "example.com", false},
		{"example.org", "example.com", false},
	}
	for _, c := range cases {
		got := MustName(c.child).IsSubdomainOf(MustName(c.parent))
		if got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestNameTLD(t *testing.T) {
	if got := MustName("a.b.example.com").TLD(); got != "com" {
		t.Errorf("TLD = %q", got)
	}
	if got := Root.TLD(); got != "" {
		t.Errorf("TLD(.) = %q", got)
	}
}

func TestCanonicalOrderRFC4034Example(t *testing.T) {
	// The canonical ordering example from RFC 4034 §6.1.
	want := []Name{
		MustName("example."),
		MustName("a.example."),
		MustName("yljkjljk.a.example."),
		MustName("z.a.example."),
		MustName("zabc.a.example."),
		MustName("z.example."),
	}
	got := append([]Name(nil), want...)
	// Shuffle deterministically by reversing.
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestCompareReflexiveAndAntisymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		x := MustName(strings.Repeat("a", int(a%20)+1) + ".example")
		y := MustName(strings.Repeat("b", int(b%20)+1) + ".example")
		if x.Compare(x) != 0 || y.Compare(y) != 0 {
			return false
		}
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireLength(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{".", 1},
		{"com", 5},          // 3com0
		{"example.com", 13}, // 7example3com0
	}
	for _, c := range cases {
		if got := MustName(c.name).WireLength(); got != c.want {
			t.Errorf("WireLength(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLabelCount(t *testing.T) {
	if got := Root.LabelCount(); got != 0 {
		t.Errorf("LabelCount(.) = %d", got)
	}
	if got := MustName("a.b.c").LabelCount(); got != 3 {
		t.Errorf("LabelCount(a.b.c.) = %d", got)
	}
	for _, s := range []string{"com", "a\\.b.example", "\\000.x", "a\\\\.b", "*.w.example", "\\046\\046.y"} {
		if n := MustName(s); n.LabelCount() != len(n.Labels()) {
			t.Errorf("LabelCount(%q) = %d, Labels has %d", n, n.LabelCount(), len(n.Labels()))
		}
	}
}

// TestNameWireRoundTripProperty packs random (valid) names through a message
// question and checks they come back canonicalized but intact.
func TestNameWireRoundTripProperty(t *testing.T) {
	f := func(labels []uint8) bool {
		if len(labels) == 0 {
			return true
		}
		// Build a name of 1..4 random-length labels.
		name := ""
		for i, l := range labels {
			if i == 4 {
				break
			}
			n := int(l%20) + 1
			for j := 0; j < n; j++ {
				name += string(rune('a' + (int(l)+j)%26))
			}
			name += "."
		}
		name += "example."
		parsed, err := NewName(name)
		if err != nil {
			return true // over-length names may validly fail
		}
		m := NewQuery(1, parsed, TypeA)
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		back, err := Unpack(wire)
		if err != nil {
			return false
		}
		return back.Question[0].Name == parsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNameWithEscapedBytesRoundTrips covers non-printable label bytes.
func TestNameWithEscapedBytesRoundTrips(t *testing.T) {
	n, err := NewName(`\000\255abc.example`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewQuery(1, n, TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Question[0].Name != n {
		t.Errorf("round trip %q -> %q", n, back.Question[0].Name)
	}
}

// childReference is Child without the plain-label fast path: the name
// NewName makes of label + "." + parent, or an error where Child panics.
func childReference(parent Name, label string) (Name, error) {
	if parent.IsRoot() {
		return NewName(label + ".")
	}
	return NewName(label + "." + string(parent))
}

// FuzzChildEquivalence: for every parent NewName accepts and every label,
// Child returns exactly what the validating path returns, and panics exactly
// where that path fails — the fast path may skip the parse, never the limits.
func FuzzChildEquivalence(f *testing.F) {
	long := strings.Repeat("a", 63)
	nearLimit := long + "." + long + "." + long + "." + strings.Repeat("b", 57) // 253 wire octets
	for _, s := range [][2]string{
		{"example.com", "www"}, {".", "com"}, {"com", "ns1"}, {"com", "_dmarc"},
		{"com", "MiXed"}, {"com", "a.b"}, {"com", ""}, {"com", long}, {"com", long + "x"},
		{"com", "\\000"}, {"com", "a\\.b"}, {"com", "tr\\"}, {"com", "*"}, {"com", "\x00"},
		{nearLimit, "c"}, {nearLimit, "cc"}, {"a\\.b.example", "x"}, {"\\065bc.example", strings.Repeat("y", 60)},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, parentText, label string) {
		parent, err := NewName(parentText)
		if err != nil {
			return
		}
		want, wantErr := childReference(parent, label)
		var got Name
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			got = parent.Child(label)
			return false
		}()
		if panicked != (wantErr != nil) {
			t.Fatalf("%q.Child(%q): panicked=%t, reference error %v", parent, label, panicked, wantErr)
		}
		if got != want {
			t.Fatalf("%q.Child(%q) = %q, reference %q", parent, label, got, want)
		}
	})
}

// TestChildPlainLabelAllocs gates the fast path: a canonical label costs the
// one allocation of the result string.
func TestChildPlainLabelAllocs(t *testing.T) {
	parent := MustName("d000123.com")
	var sink Name
	if n := testing.AllocsPerRun(200, func() { sink = parent.Child("ns1") }); n != 1 {
		t.Errorf("Child(plain label) = %.0f allocs, want 1", n)
	}
	if sink != MustName("ns1.d000123.com") {
		t.Errorf("Child = %q", sink)
	}
}

// TLD returns the rightmost label of n ("com" for "a.example.com."); the
// empty string for the root.
func (n Name) TLD() string {
	s, ok := n.dotted()
	if !ok {
		return ""
	}
	_, tld, _ := cutLastLabel(s)
	return tld
}
