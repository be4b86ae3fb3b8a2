package telemetry

import (
	"context"
	"strings"
	"testing"
)

func mkTrace(name string) *Trace {
	_, tr := StartTrace(context.Background(), name)
	tr.Root().End()
	return tr
}

func TestTraceLogRingEviction(t *testing.T) {
	l := NewTraceLog(3)
	for _, n := range []string{"a", "b", "c", "d"} {
		l.Add(mkTrace(n))
	}
	if l.Total() != 4 {
		t.Fatalf("total = %d, want 4", l.Total())
	}
	recent := l.Recent(10)
	if len(recent) != 3 {
		t.Fatalf("len(recent) = %d, want 3 (capacity)", len(recent))
	}
	if recent[0].Name != "d" || recent[2].Name != "b" {
		t.Fatalf("recent order wrong: %s..%s", recent[0].Name, recent[2].Name)
	}
	if l.Find("a") != nil {
		t.Fatal("oldest trace must be evicted")
	}
}

func TestTraceLogFind(t *testing.T) {
	l := NewTraceLog(8)
	l.Add(mkTrace("ds-bogus-digest-value.extended-dns-errors.com. A"))
	l.Add(mkTrace("valid.extended-dns-errors.com. A"))
	if got := l.Find("DS-BOGUS"); got == nil || !containsFold(got.Name, "ds-bogus") {
		t.Fatalf("case-insensitive substring find failed: %v", got)
	}
	if got := l.Find(""); got == nil || got.Name[:5] != "valid" {
		t.Fatalf("empty query must return newest, got %v", got)
	}
	if l.Find("absent") != nil {
		t.Fatal("no match must return nil")
	}
	var nilLog *TraceLog
	nilLog.Add(mkTrace("x")) // must not panic
	if nilLog.Find("x") != nil || nilLog.Total() != 0 || nilLog.Recent(1) != nil {
		t.Fatal("nil TraceLog must be inert")
	}
}

func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample() {
		t.Fatal("n=0 must never sample")
	}
	every := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !every.Sample() {
			t.Fatal("n=1 must always sample")
		}
	}
	s := NewSampler(10)
	hits := 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-10 over 1000 = %d hits, want exactly 100", hits)
	}
	var nilSampler *Sampler
	if nilSampler.Sample() {
		t.Fatal("nil sampler must never sample")
	}
}

// Recent returns up to n traces, newest first.
func (l *TraceLog) Recent(n int) []*Trace {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Trace, 0, n)
	for i := 1; i <= len(l.buf) && len(out) < n; i++ {
		t := l.buf[(l.next-i+len(l.buf))%len(l.buf)]
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}
