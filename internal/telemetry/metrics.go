package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series under a family are keyed by their
// full ordered label set.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric families.
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. The write path is a single
// atomic add: safe from any number of goroutines, no locks, no allocations.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n uint64) { c.v.Add(n) }
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one labelled instance under a family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// Views over foreign atomics: read at scrape time only.
	counterFn func() uint64
	gaugeFn   func() float64
}

func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Load())
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gauge != nil:
		return s.gauge.Load()
	case s.gaugeFn != nil:
		return s.gaugeFn()
	case s.hist != nil:
		return float64(s.hist.Count())
	}
	return 0
}

type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	index  map[string]*series // labelSignature -> series
}

// Registry holds metric families in registration order, so the exposition
// output is stable across scrapes and across runs.
type Registry struct {
	mu     sync.RWMutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\xff')
		sb.WriteString(l.Value)
		sb.WriteByte('\xfe')
	}
	return sb.String()
}

// lookup finds or creates the family and the series slot. Registration is
// idempotent: asking for the same (name, labels) returns the existing series,
// so two subsystems can share a metric. Mismatched kinds panic — that is a
// programming error the tests catch immediately.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, index: make(map[string]*series)}
		r.byName[name] = fam
		r.order = append(r.order, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, fam.kind))
	}
	sig := labelSignature(labels)
	if s := fam.index[sig]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	fam.index[sig] = s
	fam.series = append(fam.series, s)
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil && s.counterFn == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape time.
// This is the migration path for subsystems with their own atomics: the hot
// path keeps its atomic.Uint64, the registry only observes it.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil && s.counterFn == nil {
		s.counterFn = fn
	}
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil && s.gaugeFn == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil && s.gaugeFn == nil {
		s.gaugeFn = fn
	}
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = &Histogram{}
	}
	return s.hist
}

// Value returns the current value of the series identified by name and the
// exact label set, and whether it exists. Histograms report their observation
// count. This is what edescan's -progress loop snapshots.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fam := r.byName[name]
	if fam == nil {
		return 0, false
	}
	s := fam.index[labelSignature(labels)]
	if s == nil {
		return 0, false
	}
	return s.value(), true
}
