package dnswire

import (
	"testing"
)

// Allocation-regression gates: the scan pipeline's throughput rests on the
// codec staying allocation-lean (DESIGN.md §5b), so codec changes that
// reintroduce per-message garbage fail here instead of silently landing.
// The budgets are small fixed numbers with a little headroom, not exact
// pins, so unrelated runtime changes don't flake the suite.

func TestPackAllocBudget(t *testing.T) {
	m := sampleMessage()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Pack(); err != nil {
			t.Fatal(err)
		}
	})
	// Pack into a fresh buffer costs only the output's growth reallocations.
	if allocs > 7 {
		t.Fatalf("Message.Pack allocates %.1f/op, budget 7", allocs)
	}
}

func TestAppendPackAllocFree(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := m.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = wire[:0]
	})
	// With a pre-sized reusable buffer the entire pack must be
	// allocation-free; this is what netsim's per-hop round trips rely on.
	if allocs != 0 {
		t.Fatalf("Message.AppendPack into a reused buffer allocates %.1f/op, want 0", allocs)
	}
}

func TestUnpackAllocBudget(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Unpack(wire); err != nil {
			t.Fatal(err)
		}
	})
	// Unpack necessarily copies names, signatures, and section slices out of
	// the wire image (the result must not alias the caller's buffer), and
	// boxes each RDATA value into the RData interface; the budget covers
	// those copies and nothing more.
	t.Logf("Unpack of the 5-RR sample message: %.0f allocs", allocs)
	if allocs > 19 {
		t.Fatalf("Unpack allocates %.1f/op, budget 19 (measured 18)", allocs)
	}
}

// TestPackCompressionStillApplied guards the suffix-offset compressor: the
// sample message repeats its owner name five times, so the compressed
// encoding must be markedly smaller than the uncompressed one and still
// round-trip exactly.
func TestPackCompressionStillApplied(t *testing.T) {
	m := sampleMessage()
	compressed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.PackNoCompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(plain) {
		t.Fatalf("compression had no effect: compressed %d bytes, uncompressed %d", len(compressed), len(plain))
	}
}

// TestPackEscapedNameRoundTrip exercises the uncompressed fallback for names
// with presentation escapes, which the raw-buffer suffix matcher must skip.
func TestPackEscapedNameRoundTrip(t *testing.T) {
	n, err := NewName(`an\.odd\108abel.example.com.`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewQuery(7, n, TypeA)
	m.Answer = []RR{{Name: n, Class: ClassIN, TTL: 60, Data: TXT{Strings: []string{"x"}}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Question[0].Name != m.Question[0].Name || got.Answer[0].Name != m.Answer[0].Name {
		t.Fatalf("escaped name did not survive the round trip: %q vs %q", got.Answer[0].Name, m.Answer[0].Name)
	}
}
