// Command bench is edelab's end-to-end benchmark: it builds each serving or
// scanning stack in-process from the layers' public constructors, drives it
// with inputs generated from -seed, checks every answer against a reference,
// and prints every metric by name and unit. README.md has the workload and
// metric tables; BENCHMARK.json at the repository root is the contract.
//
//	go run . -workload udp_hot              # one workload, end-to-end metrics
//	go run . -workload udp_miss -trace 1    # the same stack behind the seam decorators: per-layer metrics
//	go run .                                # every workload, each in a fresh process
//	go run . -compare a.jsonl b.jsonl       # two recorded sets of runs, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
)

// metric is one reported value, in the shape the contract's result line uses.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result object: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's result and prints it as it goes.
type report struct {
	out io.Writer
	res result
}

func newReport(out io.Writer) *report {
	return &report{out: out, res: result{Correct: true, Metrics: make(map[string]metric)}}
}

func (r *report) metric(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite", name)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "metric %-36s %14.4f %s\n", name, v, unit)
}

func (r *report) info(key string, v any) { fmt.Fprintf(r.out, "info   %-36s %v\n", key, v) }

// fail records a failed check; the run prints correct=false and exits 1.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(r.out, "FAILED %s\n", fmt.Sprintf(format, args...))
}

// count adds one phase's attempted and failed operations.
func (r *report) count(phase string, st *phaseStats) {
	r.res.Attempted += st.attempted.Load()
	if n := st.failed.Load(); n > 0 {
		r.res.Failed += n
		r.fail("%s: %d of %d operations failed, first: %s", phase, n, st.attempted.Load(), st.firstErr)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: udp_hot, udp_miss, tcp_hot, cluster_hot, campaign_scan, or all (each in a fresh process)")
	seed := fs.Uint64("seed", 20230515, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "seconds of measurement per run")
	trace := fs.Int("trace", 0, "1 = run behind the seam decorators and print the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "smoke-test sizes: 10k-domain population, paced rates cut 20x")
	record := fs.String("record", "", "append this run's result to a JSON-lines file, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments: A.jsonl B.jsonl")
	contract := fs.String("contract", "../BENCHMARK.json", "path of BENCHMARK.json (bounds for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(stdout, stderr, *contract, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "bench: -seconds must be between 1 and 60")
		return 2
	}
	if !measurable {
		fmt.Fprintln(stderr, "bench: process CPU time and resident set are read through Linux interfaces; this platform has none")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	p := newParams(*seed, *seconds, *trace != 0, *quick)
	rep := newReport(stdout)
	rep.info("workload", w.name)
	rep.info("seed", p.seed)
	rep.info("gomaxprocs", runtime.GOMAXPROCS(0))
	var err error
	if w.front == "campaign" {
		err = runCampaign(p, w, rep)
	} else {
		err = runServing(p, w, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.res.Attempted == 0 {
		rep.fail("no operation was attempted")
	}
	if *record != "" {
		if err := appendRecord(*record, recorded{Workload: w.name, Seed: p.seed, Trace: *trace, Result: rep.res}); err != nil {
			fmt.Fprintf(stderr, "bench: -record: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so each starts with a
// clean heap and cold caches and its peak RSS is its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
