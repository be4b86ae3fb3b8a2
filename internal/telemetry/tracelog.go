package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
)

// TraceLog is a bounded ring buffer of completed traces — the query log
// behind /api/trace. When full, the oldest trace is overwritten.
type TraceLog struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total uint64
}

// NewTraceLog returns a log holding at most capacity traces (min 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Trace, capacity)}
}

// Add stores a trace, evicting the oldest when full.
func (l *TraceLog) Add(t *Trace) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = t
	l.next = (l.next + 1) % len(l.buf)
	l.total++
	l.mu.Unlock()
}

// Total returns how many traces have ever been added.
func (l *TraceLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Find returns the newest trace whose name contains q (case-insensitive),
// or nil. An empty q matches the newest trace.
func (l *TraceLog) Find(q string) *Trace {
	if l == nil {
		return nil
	}
	q = strings.ToLower(q)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 1; i <= len(l.buf); i++ {
		t := l.buf[(l.next-i+len(l.buf))%len(l.buf)]
		if t == nil {
			break
		}
		if q == "" || strings.Contains(strings.ToLower(t.Name), q) {
			return t
		}
	}
	return nil
}

// Sampler decides which queries get a trace: 1-in-N, decided by a single
// atomic increment so concurrent handlers never double-sample.
type Sampler struct {
	n uint64
	c atomic.Uint64
}

// NewSampler samples one in every n queries. n == 0 disables sampling
// entirely; n == 1 samples everything.
func NewSampler(n uint64) *Sampler { return &Sampler{n: n} }

// Sample reports whether this query should be traced. Safe on a nil
// receiver (never samples).
func (s *Sampler) Sample() bool {
	if s == nil || s.n == 0 {
		return false
	}
	if s.n == 1 {
		return true
	}
	return s.c.Add(1)%s.n == 1
}
