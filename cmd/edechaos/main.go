// Command edechaos runs declarative chaos scenarios: spec files that name a
// topology driver, a per-phase fault schedule, actions, and a steady-state
// hypothesis of expected RCODE/EDE cells plus telemetry probes.
//
//	edechaos run scenarios/frontend-shed-under-load.scn
//	edechaos run -seed 7 scenario.scn
//	edechaos suite scenarios/
//	edechaos suite -seed 3 -v scenarios/
//
// Every run prints its effective seed (and embeds it in the verdict report):
// a failing scenario is reproducible from its output alone. The suite
// subcommand renders a verdict table over every *.scn file in the directory
// and exits nonzero when any scenario FAILs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/scenario"
)

// defaultSeed is the chaos convention seed, the one CI's per-push suite and
// the tier-1 library test replay.
const defaultSeed = 20230515

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value is
// the exit status: 1 when a scenario FAILs, 2 for a command line or spec
// that cannot be run.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:], stdout, stderr)
	case "suite":
		return suiteCmd(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "edechaos: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  edechaos run [-seed N] <scenario-file>
  edechaos suite [-seed N] [-v] <dir>`)
}

// parseFlags parses a subcommand's flags, which must leave exactly one
// argument; when ok is false the command exits with code.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil || fs.NArg() != 1:
		usage(stderr)
		return 2, false
	}
	return 0, true
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "deterministic seed; the run is a pure function of (scenario, seed)")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	sc, err := scenario.ParseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "edechaos: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "effective seed: %d\n", *seed)
	res, err := scenario.Run(context.Background(), sc, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "edechaos: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, res.Report())
	if res.Verdict == scenario.VerdictFail {
		return 1
	}
	return 0
}

func suiteCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "deterministic seed applied to every scenario")
	verbose := fs.Bool("v", false, "print each scenario's full verdict report")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	files, err := filepath.Glob(filepath.Join(fs.Arg(0), "*.scn"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(stderr, "edechaos: no *.scn files in %s\n", fs.Arg(0))
		return 2
	}
	sort.Strings(files)
	fmt.Fprintf(stdout, "effective seed: %d\n\n", *seed)

	type row struct {
		name, driver string
		verdict      scenario.Verdict
		passed, tot  int
		failed       []string
	}
	var rows []row
	exit := 0
	for _, f := range files {
		sc, err := scenario.ParseFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "edechaos: %v\n", err)
			return 2
		}
		res, err := scenario.Run(context.Background(), sc, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "edechaos: %s: %v\n", sc.Name, err)
			return 2
		}
		if *verbose {
			fmt.Fprint(stdout, res.Report())
			fmt.Fprintln(stdout)
		}
		r := row{
			name: sc.Name, driver: sc.Driver, verdict: res.Verdict,
			passed: res.Total() - res.Failed(), tot: res.Total(),
		}
		if res.Verdict == scenario.VerdictFail {
			exit = 1
			r.failed = res.FailedChecks()
		}
		rows = append(rows, r)
	}

	fmt.Fprintf(stdout, "%-36s %-12s %-7s %s\n", "SCENARIO", "DRIVER", "VERDICT", "CHECKS")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-36s %-12s %-7s %d/%d\n", r.name, r.driver, r.verdict, r.passed, r.tot)
		for _, fc := range r.failed {
			fmt.Fprintf(stdout, "    violated: %s\n", fc)
		}
	}
	return exit
}
