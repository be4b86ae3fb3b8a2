package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is the span tree for one resolution (or one batch, when a caller
// puts several resolutions under one root). All mutation goes through the
// trace's mutex: spans are reachable from multiple goroutines — frontend
// coalescing shares the flight leader's context, and out-of-bailiwick
// sub-resolutions reuse the parent's — so the tree must tolerate concurrent
// writers.
type Trace struct {
	Name  string
	Start time.Time

	mu     sync.Mutex
	root   *Span
	spans  int
	events int
}

// Span is one node in the tree. A nil *Span is a valid, inert span: every
// method checks the receiver and does nothing, which is what makes
// instrumented code free when tracing is off — no flag checks at call sites,
// no allocations on the disabled path.
type Span struct {
	tr       *Trace
	name     string
	start    time.Duration // offset from Trace.Start
	end      time.Duration
	ended    bool
	events   []Event
	children []*Span
}

// Event is one timestamped annotation on a span.
type Event struct {
	At  time.Duration `json:"at"`
	Msg string        `json:"msg"`
}

type spanCtxKey struct{}

// StartTrace begins a trace rooted at name and returns a derived context
// carrying its root span, ready to hand to Resolver.Resolve or
// Frontend.HandleDNS.
func StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	tr := &Trace{Name: name, Start: time.Now()}
	tr.root = &Span{tr: tr, name: name}
	tr.spans = 1
	return context.WithValue(ctx, spanCtxKey{}, tr.root), tr
}

// WithSpan returns a context carrying sp. Carrying an explicit nil span is
// legal and is exactly the disabled-tracing fast path.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom extracts the current span from ctx, or nil when tracing is off.
// The nil return flows straight into the nil-safe Span methods.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

func (t *Trace) now() time.Duration { return time.Since(t.Start) }

// Child opens a sub-span under s and returns it. Call End when it closes.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	c := &Span{tr: t, name: name}
	t.mu.Lock()
	c.start = t.now()
	s.children = append(s.children, c)
	t.spans++
	t.mu.Unlock()
	return c
}

// Childf is Child with a format string.
func (s *Span) Childf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	return s.Child(fmt.Sprintf(format, args...))
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = t.now()
	}
	t.mu.Unlock()
}

// Event records a timestamped annotation on s.
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	s.events = append(s.events, Event{At: t.now(), Msg: msg})
	t.events++
	t.mu.Unlock()
}

// Eventf is Event with a format string.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	s.Event(fmt.Sprintf(format, args...))
}

// SpanSnapshot is an immutable copy of a span subtree, safe to serialize.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Duration  `json:"start"`
	Duration time.Duration  `json:"duration"`
	Events   []Event        `json:"events,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is an immutable copy of a whole trace.
type TraceSnapshot struct {
	Name   string       `json:"name"`
	Start  time.Time    `json:"start"`
	Spans  int          `json:"spans"`
	Events int          `json:"events"`
	Root   SpanSnapshot `json:"root"`
}

// Snapshot copies the tree under the trace lock.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		Name:   t.Name,
		Start:  t.Start,
		Spans:  t.spans,
		Events: t.events,
		Root:   snapshotSpan(t.root, t.now()),
	}
}

func snapshotSpan(s *Span, now time.Duration) SpanSnapshot {
	end := s.end
	if !s.ended {
		end = now
	}
	out := SpanSnapshot{
		Name:     s.name,
		Start:    s.start,
		Duration: end - s.start,
		Events:   append([]Event(nil), s.events...),
	}
	for _, c := range s.children {
		out.Children = append(out.Children, snapshotSpan(c, now))
	}
	return out
}

// Render draws the span tree as indented text: spans carry durations,
// events are bullet lines, and events and child spans interleave in time
// order so the output reads as a narrative of the resolution.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	snap := t.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s — %d spans, %d events, %s\n",
		snap.Name, snap.Spans, snap.Events, fmtDur(snap.Root.Duration))
	renderSpan(&sb, &snap.Root, "")
	return sb.String()
}

// renderItem interleaves a span's events and children chronologically.
type renderItem struct {
	at    time.Duration
	event *Event
	child *SpanSnapshot
}

func renderSpan(sb *strings.Builder, s *SpanSnapshot, indent string) {
	fmt.Fprintf(sb, "%s▶ %s  (%s)\n", indent, s.Name, fmtDur(s.Duration))
	items := make([]renderItem, 0, len(s.Events)+len(s.Children))
	for i := range s.Events {
		items = append(items, renderItem{at: s.Events[i].At, event: &s.Events[i]})
	}
	for i := range s.Children {
		items = append(items, renderItem{at: s.Children[i].Start, child: &s.Children[i]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	inner := indent + "  "
	for _, it := range items {
		if it.event != nil {
			fmt.Fprintf(sb, "%s· %s\n", inner, it.event.Msg)
		} else {
			renderSpan(sb, it.child, inner)
		}
	}
}

// fmtDur rounds durations for display: traces are read by humans, and
// nanosecond noise buries the structure.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
