package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestHistQuantilesAgainstSortedSlice: the log-linear histogram's quantile
// is within one sub-bucket (1/64) of the exact order statistic, at every
// magnitude from nanoseconds to seconds.
func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := newHist()
	var vs []int64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.Float64()*20)) + int64(rng.IntN(50)) // 1 ns … ~0.5 s
		vs = append(vs, v)
		h.add(v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(vs[min(int(q*float64(len(vs))), len(vs)-1)])
		got := h.quantile(q)
		if math.Abs(got-want) > want/histSub+1 {
			t.Errorf("quantile(%v) = %v, sorted slice says %v", q, got, want)
		}
	}
	if newHist().quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestHistMergeEqualsSingleHistogram(t *testing.T) {
	a, b, all := newHist(), newHist(), newHist()
	for i := int64(0); i < 10000; i++ {
		v := i * i
		all.add(v)
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(b)
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != all.quantile(q) {
			t.Errorf("merged quantile(%v) = %v, single histogram %v", q, a.quantile(q), all.quantile(q))
		}
	}
}

// TestSliceQuantileIsMedianOfSlices: one disturbed slice out of five does
// not move the reported percentile, and empty slices are ignored.
func TestSliceQuantileIsMedianOfSlices(t *testing.T) {
	var slices []*hist
	for i := 0; i < 5; i++ {
		h := newHist()
		for j := 0; j < 1000; j++ {
			v := int64(100 + i) // slice i sits at 100+i ns …
			if i == 4 {
				v = 1_000_000 // … except the disturbed one
			}
			h.add(v)
		}
		slices = append(slices, h)
	}
	if got := sliceQuantile(slices, 0.99); math.Abs(got-102.5) > 1 {
		t.Errorf("p99 = %v, want the middle slice's ≈102", got)
	}
	slices[0], slices[1] = newHist(), newHist()
	if got := sliceQuantile(slices, 0.5); math.Abs(got-103.5) > 1 {
		t.Errorf("with two empty slices p50 = %v, want the middle of 102,103,1e6 ≈103", got)
	}
	if sliceQuantile(nil, 0.5) != 0 {
		t.Error("no slices must report 0")
	}
}

// TestScheduleOnFakeClock walks a sender over a fake clock: due times are
// evenly spaced from the connection's offset, end is exclusive, slices
// partition the phase, and lateness is the wake-up's distance past due.
func TestScheduleOnFakeClock(t *testing.T) {
	const ms = int64(time.Millisecond)
	s := schedule{start: 1000 * ms, end: 1100 * ms, interval: 2 * time.Millisecond,
		phaseStart: 999 * ms, phaseLen: 101 * ms, slices: 5}
	clock := s.start - 5*ms // the sender starts early
	perSlice := make([]int, s.slices)
	var n int64
	for ; ; n++ {
		due, ok := s.due(n)
		if !ok {
			break
		}
		if due != s.start+n*2*ms {
			t.Fatalf("query %d due at %d, want %d", n, due, s.start+n*2*ms)
		}
		if clock < due {
			clock = due + 300_000 // the fake sleep overshoots by 0.3 ms
		}
		if n == 10 {
			clock += 7 * ms // a stall: the next queries are sent late, in a burst
		}
		late := lateness(due, clock)
		switch {
		case n < 10 && late != 300_000:
			t.Errorf("query %d lateness %d, want the sleep overshoot", n, late)
		case n == 11 && late != 7*ms+300_000-2*ms:
			t.Errorf("query 11 lateness %d, want the stall minus one interval", late)
		}
		perSlice[s.slice(due)]++
	}
	if n != 50 {
		t.Errorf("schedule held %d queries, want 50 (end is exclusive)", n)
	}
	for i, c := range perSlice {
		if c < 9 || c > 11 {
			t.Errorf("slice %d holds %d queries, want about 10", i, c)
		}
	}
	if lateness(100, 40) != 0 {
		t.Error("an early wake-up has no lateness")
	}
	if s.slice(0) != 0 || s.slice(math.MaxInt64/8) != 4 {
		t.Error("due times outside the phase must clamp to the edge slices")
	}
}

// TestSelfTimeSubtractsChildren: a span's self time is its duration minus
// the union of its children's intervals, and link finds the parents the
// context cannot carry.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	key := spanKey(7, dnswire.MustName("a.example"))
	other := spanKey(8, dnswire.MustName("a.example"))
	spans := []span{
		{ID: 1, Parent: -1, Seam: seamClient, Key: key, Start: 0, End: 1000},
		{ID: 2, Parent: -1, Seam: seamClient, Key: other, Start: 10, End: 900}, // same name, other ID: must not adopt
		{ID: 3, Parent: -1, Seam: seamHandle, Key: key, Start: 100, End: 800},
		{ID: 4, Parent: 3, Seam: seamUpstream, Key: uint64(uint32(key)), Start: 200, End: 700},
		{ID: 5, Parent: 4, Seam: seamEndpoint, Start: 250, End: 350},
		{ID: 6, Parent: 4, Seam: seamEndpoint, Start: 300, End: 450}, // overlaps span 5: counted once
		{ID: 7, Parent: -1, Seam: seamReplicaHandle, Key: spanKey(99, dnswire.MustName("a.example")), Start: 500, End: 600},
		{ID: 8, Parent: -1, Seam: seamWire, Key: spanKey(9, dnswire.MustName("b.example")), Start: 20, End: 30}, // no client span
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byID := make(map[int32]*span)
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	if orphans := link(spans); orphans != 1 {
		t.Errorf("link left %d orphans, want 1 (the wire span with no client)", orphans)
	}
	if byID[3].Parent != 1 {
		t.Errorf("frontdoor.handle parent = %d, want the client span with the same ID and name", byID[3].Parent)
	}
	if byID[7].Parent != 3 {
		t.Errorf("replica.handle parent = %d, want the router's handle span for that name", byID[7].Parent)
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 300, 3: 200, 4: 300, 5: 100, 6: 150, 7: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// testInputs builds one-query inputs whose reference says NOERROR, no EDE.
func testInputs(t *testing.T) *inputs {
	t.Helper()
	name := dnswire.MustName("d1.example")
	q := &dnswire.Message{RecursionDesired: true,
		Question: []dnswire.Question{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		OPT:      &dnswire.OPT{UDPSize: 1232}}
	wire, err := q.AppendPack(make([]byte, 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	return &inputs{names: []dnswire.Name{name}, framed: [][]byte{wire}, ref: []answer{{}}, refOK: []bool{true}}
}

// respond packs the answer a server would send to in's query under id.
func respond(t *testing.T, in *inputs, id uint16, rcode dnswire.RCode, edes ...uint16) []byte {
	t.Helper()
	q, err := dnswire.Unpack(in.framed[0][2:])
	if err != nil {
		t.Fatal(err)
	}
	q.ID = id
	r := q.Reply()
	r.RCode = rcode
	for _, c := range edes {
		r.AddEDE(c, "text")
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestReferenceMismatchCountsAsFailure drives settle with crafted responses:
// a matching answer verifies; a wrong RCODE or EDE set, an unparseable
// message, a wrong question and an unknown ID each count one failure.
func TestReferenceMismatchCountsAsFailure(t *testing.T) {
	in := testInputs(t)
	p := newParams(1, 1, false, true)
	c := &client{p: p, in: in, nconn: 1, pend: make([]pendingSlot, 1<<16), h: newLatencies(p.slices)}
	slice0 := func(int64) int { return 0 }
	pending := func(id uint16) {
		c.pend[id].qi.Store(0)
		c.pend[id].sent.Store(1)
		c.pend[id].due.Store(1)
	}
	st := newPhaseStats(p.slices)

	pending(1)
	if !c.settle(st, respond(t, in, 1, dnswire.RCodeNoError), slice0) || st.verified.Load() != 1 || st.failed.Load() != 0 {
		t.Fatalf("matching answer: verified %d failed %d", st.verified.Load(), st.failed.Load())
	}
	bad := [][]byte{
		respond(t, in, 2, dnswire.RCodeServFail),        // wrong RCODE
		respond(t, in, 3, dnswire.RCodeNoError, 22),     // unexpected EDE
		respond(t, in, 4, dnswire.RCodeNoError)[:20],    // truncated mid-question
		append([]byte{0, 5}, in.framed[0][4:]...),       // a query, not a response
		respond(t, in, 6, dnswire.RCodeNoError)[:12+10], // question cut short
	}
	for i, resp := range bad {
		pending(uint16(i + 2))
		c.settle(st, resp, slice0)
		if got := st.failed.Load(); got != uint64(i+1) {
			t.Fatalf("bad response %d: failed = %d, want %d (%s)", i, got, i+1, st.firstErr)
		}
	}
	if c.settle(st, respond(t, in, 777, dnswire.RCodeNoError), slice0) || st.failed.Load() != uint64(len(bad)+1) {
		t.Error("a response to no pending query must fail and not settle")
	}
	if st.verified.Load() != 1 {
		t.Errorf("verified = %d, want 1", st.verified.Load())
	}

	// With the reference check off (warm-up's first passes) a differing but
	// well-formed answer is accepted.
	st.noRef = true
	pending(9)
	c.settle(st, respond(t, in, 9, dnswire.RCodeServFail, 22, 23), slice0)
	if st.verified.Load() != 2 {
		t.Error("noRef must accept a well-formed answer that differs from the reference")
	}

	// A query never answered is a failure when the phase ends.
	failed := st.failed.Load()
	pending(10)
	c.timeoutPending(st)
	if st.failed.Load() != failed+1 {
		t.Error("an unanswered query must count as failed")
	}
}

// TestCheckWireAgreesWithUnpack: the benchmark's own response walker and the
// program's codec read the same RCODE and EDE set, extended RCODE included.
func TestCheckWireAgreesWithUnpack(t *testing.T) {
	in := testInputs(t)
	for _, tc := range []struct {
		rcode dnswire.RCode
		edes  []uint16
	}{
		{dnswire.RCodeNoError, nil}, {dnswire.RCodeServFail, []uint16{23, 22, 13}},
		{dnswire.RCodeNXDomain, []uint16{6}}, {dnswire.RCode(16), []uint16{1}}, // BADVERS needs the OPT's extended bits
	} {
		resp := respond(t, in, 1, tc.rcode, tc.edes...)
		got, err := checkWire(in.framed[0][2:], resp)
		if err != nil {
			t.Fatalf("rcode %d: %v", tc.rcode, err)
		}
		m, err := dnswire.Unpack(resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := answerOf(uint16(m.RCode), m.EDECodes()); got != want {
			t.Errorf("checkWire = %+v, Unpack says %+v", got, want)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := contractMetric{Name: "lat", Better: "lower", Bound: 0.10}
	higher := contractMetric{Name: "ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 70, 100, 125}
	for _, tc := range []struct {
		name string
		m    contractMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{120, 121, 119}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79}, "ok"},
		{"throughput fell", higher, steady, []float64{80, 81, 79}, "worse"},
		{"throughput rose", higher, steady, []float64{120, 121, 119}, "ok"},
		{"noisy parent", lower, noisy, []float64{120, 121, 119}, "unresolved"},
		{"noisy parent, every run better", lower, noisy, []float64{60, 61, 59}, "ok"},
	} {
		if got, _, _, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestContractNamesWhatTheHarnessPrints keeps BENCHMARK.json and the harness
// in step without running anything: the same workloads in the same order, the
// end-to-end metrics the untraced run prints, and the per-layer table.
func TestContractNamesWhatTheHarnessPrints(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []contractMetric, want []layerMetric) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the harness prints %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end-to-end", c.EndToEnd, endToEndMetrics)
	same("per-layer", c.PerLayer, layerMetrics)
}

func TestDistinctKeyTags(t *testing.T) {
	if !distinct([]uint16{1, 2, 3}) || !distinct(nil) || distinct([]uint16{7, 2, 7}) {
		t.Error("distinct must report exactly whether a tag repeats")
	}
}

// TestQuickRunPrintsEveryContractMetric runs every workload at -quick sizes,
// untraced and traced, and asserts only that each metric BENCHMARK.json names
// for that mode was printed with a finite value, with zero failed
// operations. No timing is asserted.
func TestQuickRunPrintsEveryContractMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads twice")
	}
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		for trace, want := range map[string][]contractMetric{"0": c.EndToEnd, "1": c.PerLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"-quick", "-seconds", "1", "-workload", w.Name, "-trace", trace}, &out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if code != 0 {
				t.Fatalf("%s -trace %s exited %d\n%s%s", w.Name, trace, code, out.String(), errOut.String())
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s -trace %s: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s -trace %s: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %s did not print %s", w.Name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s -trace %s: %s = %v", w.Name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s -trace %s: %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
