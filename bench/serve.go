package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/frontend"
)

// serving is a set-up serving workload, ready to measure.
type serving struct {
	p       params
	w       workload
	stack   *stack
	in      *inputs
	clients []*client
	nextOp  atomic.Int64 // measured operations handed out so far, across phases

	// setupS is what the program's own set-up took: generate, materialise,
	// build the stack, open the sockets, warm up. Drawing a world again
	// after a key-tag clash and checking for one are the benchmark's.
	setupS float64
}

// next hands out the measured operations in order; the connections share it.
func (sv *serving) next() (int, bool) { return sv.in.op(int(sv.nextOp.Add(1) - 1)) }

// exhausted reports whether a phase asked for more never-seen names than the
// miss sequence holds: the phase then ran shorter than it was told to.
func (sv *serving) exhausted() bool {
	return sv.w.miss && int(sv.nextOp.Load()) > len(sv.in.framed)-len(sv.in.warm)
}

// prepareInputs generates a serving workload's inputs and fills their
// reference table from a twin: a world of the same seed behind a resolver and
// frontend no client ever loads, garbage once the table is filled. This is
// the benchmark's own work, done once per run and kept out of setup_s.
func prepareInputs(p params, w workload, rep *report) (*inputs, error) {
	t := time.Now()
	twin, err := newWorld(p.seed, p.domains(w))
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	var remote func(dnswire.Name) bool
	if w.front == "cluster" {
		ring, err := newRing()
		if err != nil {
			return nil, err
		}
		remote = func(n dnswire.Name) bool { return ring.OwnerID(n, dnswire.TypeA, false) == remoteReplica }
	}
	in, err := newInputs(p, twin.Pop, w.miss, remote)
	if err != nil {
		return nil, err
	}
	ts := &stack{wild: twin}
	if err := in.buildReference(p, frontend.New(ts.newUpstream(), ts.frontendConfig(p))); err != nil {
		return nil, err
	}
	rep.info("inputs_sha256", in.sha256)
	rep.info("reference_s", fmt.Sprintf("%.3f (twin world, inputs and %d reference answers; not in setup_s)", time.Since(t).Seconds(), in.refCount()))
	if twin.rekeyed > 0 {
		rep.info("rekeyed", fmt.Sprintf("twin world drawn %d more times: key-tag clash", twin.rekeyed))
	}
	return in, nil
}

// warmMixOps is the stretch of the hot mix a warm-up ends with.
const warmMixOps = 20000

// setUpServing does what a serving workload needs before its first measured
// query: generate and materialise the population, start the stack on
// loopback sockets, and warm it.
func setUpServing(p params, w workload, in *inputs) (*serving, error) {
	sv := &serving{p: p, w: w, in: in}
	wild, err := newWorld(p.seed, p.domains(w))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if sv.stack, err = newStack(p, w, wild); err != nil {
		return nil, err
	}
	nconn := min(runtime.NumCPU(), 2)
	for i := 0; i < nconn; i++ {
		sv.clients = append(sv.clients, newClient(p, sv.in, sv.stack, i, nconn))
	}

	// Warm-up, not recorded. A hot mix asks every name three times — miss,
	// hit, hit — so each entry is in its hit state, and only the third pass
	// and a short stretch of the mix itself are held to the reference (a
	// cached error gains EDE 13 on its first hit). The miss sequence's head
	// is asked once, to warm root and TLD infrastructure.
	st := newPhaseStats(sv.p.slices)
	passes := 1
	if !w.miss {
		passes = 3
	}
	for pass := 1; pass <= passes; pass++ {
		st.noRef = pass < passes
		var warmed atomic.Int64
		sv.closed(st, func() (int, bool) {
			k := int(warmed.Add(1) - 1)
			if k >= len(sv.in.warm) {
				return 0, false
			}
			return sv.in.warm[k], true
		}, nowNS()+int64(time.Minute))
	}
	if !w.miss {
		var mixed atomic.Int64
		sv.closed(st, func() (int, bool) {
			if mixed.Add(1) > warmMixOps {
				return 0, false
			}
			return sv.next()
		}, nowNS()+int64(time.Minute))
	}
	sv.setupS = wild.generateS + wild.materializeS + time.Since(t).Seconds()
	if n := st.failed.Load(); n > 0 {
		sv.stack.close()
		return nil, fmt.Errorf("warm-up: %d queries failed, first: %s", n, st.firstErr)
	}
	return sv, nil
}

// closed runs one closed-loop stretch on every connection until the clock
// passes until (or next runs dry) and merges the histograms into st.
func (sv *serving) closed(st *phaseStats, next func() (int, bool), until int64) {
	var wg sync.WaitGroup
	for _, c := range sv.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.closedLoop(st, next, until, sv.p.window)
		}(c)
	}
	wg.Wait()
	sv.settleAll(st)
}

// settleAll ends a phase: what is still pending has timed out, and the
// clients' histograms move into st.
func (sv *serving) settleAll(st *phaseStats) {
	for _, c := range sv.clients {
		c.timeoutPending(st)
		st.collect(c)
	}
}

// capacity is the closed-loop phase's outcome.
type capacity struct {
	st       *phaseStats
	opsPerS  float64 // median across slices of verified answers ÷ wall time
	cpuPerOp float64 // median across slices of process CPU µs ÷ verified answers
	rates    []float64
}

// capacityPhase runs the closed loop for dur and cuts it into p.slices equal
// slices; a monitor reads the verified-answer counter and the process CPU
// clock at each inner boundary.
func (sv *serving) capacityPhase(dur time.Duration) capacity {
	type mark struct {
		t, cpu   int64
		verified uint64
	}
	st := newPhaseStats(sv.p.slices)
	start := nowNS()
	marks := []mark{{t: start, cpu: cpuNS()}}
	done := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for i := 1; i < sv.p.slices; i++ {
			select {
			case <-done:
				return
			case <-time.After(time.Duration(start + int64(dur)*int64(i)/int64(sv.p.slices) - nowNS())):
			}
			marks = append(marks, mark{t: nowNS(), cpu: cpuNS(), verified: st.verified.Load()})
		}
	}()
	sv.closed(st, sv.next, start+int64(dur))
	close(done)
	mon.Wait()
	marks = append(marks, mark{t: nowNS(), cpu: cpuNS(), verified: st.verified.Load()}) // the last slice ends when the window has drained

	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		ops := float64(marks[i].verified - marks[i-1].verified)
		if ops == 0 {
			continue
		}
		rates = append(rates, ops/(float64(marks[i].t-marks[i-1].t)/1e9))
		cpus = append(cpus, float64(marks[i].cpu-marks[i-1].cpu)/1e3/ops)
	}
	return capacity{st: st, rates: append([]float64(nil), rates...), opsPerS: median(rates), cpuPerOp: median(cpus)}
}

// pacedPhase runs the open loop at the workload's fixed rate for dur.
func (sv *serving) pacedPhase(dur time.Duration) *phaseStats {
	st := newPhaseStats(sv.p.slices)
	nconn := len(sv.clients)
	rate := sv.w.rate / sv.p.rateDiv
	interval := time.Duration(int64(nconn) * int64(time.Second) / int64(rate))
	start := nowNS() + int64(10*time.Millisecond)
	var wg sync.WaitGroup
	for i, c := range sv.clients {
		// Connection i's schedule is offset by i/nconn of an interval, so
		// the connections together send at evenly spaced instants.
		sched := schedule{
			start: start + int64(i)*int64(interval)/int64(nconn), end: start + int64(dur), interval: interval,
			phaseStart: start, phaseLen: int64(dur), slices: sv.p.slices,
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.openLoop(st, sv.next, sched)
		}(c)
	}
	wg.Wait()
	sv.settleAll(st)
	return st
}
