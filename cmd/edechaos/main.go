// Command edechaos runs declarative chaos scenarios: spec files that name a
// topology driver, a per-phase fault schedule, actions, and a steady-state
// hypothesis of expected RCODE/EDE cells plus telemetry probes.
//
//	edechaos run scenarios/frontend-shed-under-load.scn
//	edechaos run scenario.scn -seed 7
//	edechaos suite scenarios/
//	edechaos suite scenarios/ -seed 3 -v
//
// Every run prints its effective seed (and embeds it in the verdict report):
// a failing scenario is reproducible from its output alone. The suite
// subcommand renders a verdict table over every *.scn file in the directory
// and exits nonzero when any scenario FAILs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/scenario"
)

// defaultSeed is the chaos convention seed, the one CI's per-push suite and
// the tier-1 library test replay.
const defaultSeed = 20230515

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(runCmd(os.Args[2:]))
	case "suite":
		os.Exit(suiteCmd(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "edechaos: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  edechaos run <scenario-file> [-seed N]
  edechaos suite <dir> [-seed N] [-v]`)
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Uint64("seed", defaultSeed, "deterministic seed; the run is a pure function of (scenario, seed)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	sc, err := scenario.ParseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "edechaos: %v\n", err)
		return 2
	}
	fmt.Printf("effective seed: %d\n", *seed)
	res, err := scenario.Run(context.Background(), sc, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edechaos: %v\n", err)
		return 2
	}
	fmt.Print(res.Report())
	if res.Verdict == scenario.VerdictFail {
		return 1
	}
	return 0
}

func suiteCmd(args []string) int {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	seed := fs.Uint64("seed", defaultSeed, "deterministic seed applied to every scenario")
	verbose := fs.Bool("v", false, "print each scenario's full verdict report")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	files, err := filepath.Glob(filepath.Join(fs.Arg(0), "*.scn"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(os.Stderr, "edechaos: no *.scn files in %s\n", fs.Arg(0))
		return 2
	}
	sort.Strings(files)
	fmt.Printf("effective seed: %d\n\n", *seed)

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
			fmt.Fprintf(os.Stderr, "edechaos: %v\n", err)
			return 2
		}
		res, err := scenario.Run(context.Background(), sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edechaos: %s: %v\n", sc.Name, err)
			return 2
		}
		if *verbose {
			fmt.Print(res.Report())
			fmt.Println()
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

	fmt.Printf("%-36s %-12s %-7s %s\n", "SCENARIO", "DRIVER", "VERDICT", "CHECKS")
	for _, r := range rows {
		fmt.Printf("%-36s %-12s %-7s %d/%d\n", r.name, r.driver, r.verdict, r.passed, r.tot)
		for _, fc := range r.failed {
			fmt.Printf("    violated: %s\n", fc)
		}
	}
	return exit
}
