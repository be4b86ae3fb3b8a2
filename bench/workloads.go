package main

import "time"

// workload is one named traffic mix. The names are fixed: later changes
// cite them. Why each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// front is what clients talk to: "udp", "tcp", "cluster" (UDP through
	// the cluster router) or "campaign" (no sockets, campaign.Run).
	front string
	// miss selects the never-seen-name sequence instead of the hot mix.
	miss bool
	// rate is the paced phase's fixed open-loop rate in queries/s: 40% of
	// the ops_per_s this harness's capacity phase measured on the commit that
	// added the benchmark (262k, 13.7k, 126k and 140k; README.md, Results),
	// rounded to two digits. A paced phase far below that mostly measures how
	// late an idle Go runtime wakes a sleeper.
	rate int
}

var workloads = []workload{
	{name: "udp_hot", front: "udp", rate: 100000},
	{name: "udp_miss", front: "udp", miss: true, rate: 5500},
	{name: "tcp_hot", front: "tcp", rate: 50000},
	{name: "cluster_hot", front: "cluster", rate: 56000},
	{name: "campaign_scan", front: "campaign"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// params are the sizes one run uses, all derived from -seconds and -quick so
// that a run's inputs are a function of its arguments alone.
type params struct {
	seed    uint64
	trace   bool
	measure time.Duration // what -seconds asks for

	population int // registered domains behind the hot workloads; udp_miss has its own size, see domains
	hotSet     int // names in the hot mix
	zipfS      float64
	missWarm   int // never-seen names resolved before measuring, to warm TLD infrastructure
	refEvery   int // every refEvery-th miss name is checked against the reference
	setups     int // set-up repetitions; setup_s is their median
	window     int // closed-loop outstanding queries per connection
	redial     int // tcp_hot: queries per connection before close and re-dial
	slices     int // time slices per phase; reported values are medians across them
	rateDiv    int // paced rate divisor (quick mode runs far below capacity)
	timeout    time.Duration
	cacheSize  int // frontend capacity, small enough that udp_miss evicts within one run
	// campaignDomains is campaign_scan's population: 10,100 per second of
	// -seconds, so -seconds 30 is the paper's 1:1,000 scale (303,000).
	campaignDomains int
	campaignWorkers int
}

// missPerSecond sizes udp_miss's sequence of never-seen names: this many per
// second of -seconds, three times what the capacity phase consumed on the
// commit that added the benchmark (13.7k/s), so a resolver three times as
// fast still measures for all of -seconds. A run that reaches the end of the
// sequence fails.
const missPerSecond = 40000

// domains is how many registered domains workload w's population asks for.
func (p params) domains(w workload) int {
	if w.miss {
		// hot set + warm-up + measured names, and 1% for the stale class
		// and rounding.
		return (p.hotSet + p.missWarm + missPerSecond*int(p.measure/time.Second)) * 101 / 100
	}
	return p.population
}

func newParams(seed uint64, seconds int, trace, quick bool) params {
	p := params{
		seed: seed, trace: trace,
		measure:    time.Duration(seconds) * time.Second,
		population: 120000, hotSet: 1000, zipfS: 1.1,
		missWarm: 5000, refEvery: 8, setups: 3,
		window: 32, redial: 2000, slices: 5, rateDiv: 1,
		timeout: 2 * time.Second, cacheSize: 16384,
		campaignDomains: 10100 * seconds, campaignWorkers: 32,
	}
	if trace {
		// The traced pass exists for attribution, not throughput: 30% of the
		// untraced size keeps the span buffers small.
		p.campaignDomains = 3030 * seconds
	}
	if quick {
		p.population, p.missWarm, p.setups, p.rateDiv = 10000, 500, 1, 20
		p.campaignDomains = min(p.campaignDomains, 10100)
	}
	return p
}
