package edelab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// socketOwners is where opening a socket is allowed: internal/transport
// serves and queries DNS on real sockets for everyone else; the three files
// open sockets that are not a DNS door (the cluster's forward hop, the HTTP
// admin plane, the listeners a chaos scenario points transport.StreamClient
// at); internal/loadgen is the closed-loop client edeload and the live
// edeserver tests drive; commands bind the addresses their flags name.
var socketOwners = []string{
	"internal/transport/",
	"internal/loadgen/",
	"internal/cluster/remote.go",
	"internal/telemetry/admin.go",
	"internal/scenario/driver_stream.go",
	"cmd/",
}

// eachSourceFile parses every non-test Go file of this module (nested
// modules and dot-directories excluded) and hands it to visit with its
// slash-separated path.
func eachSourceFile(t *testing.T, visit func(path string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// A nested module (bench/) is not part of this package tree.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneSocketStack fails when a non-test file outside socketOwners listens
// or dials: net.Listen*, net.Dial*, tls.Listen/Dial*, a net.Dialer or
// net.ListenConfig value, or any DialContext call. A second UDP/TCP server
// or client beside internal/transport is how the front door once came to
// answer the same RFC 6891 question two ways.
func TestOneSocketStack(t *testing.T) {
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		for _, owner := range socketOwners {
			if strings.HasPrefix(path, owner) {
				return
			}
		}
		// Local names of the two packages that open sockets.
		pkgs := map[string]bool{}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "net" && p != "crypto/tls" {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			x, _ := sel.X.(*ast.Ident)
			opens := name == "DialContext" ||
				x != nil && pkgs[x.Name] && name != "Listener" &&
					(strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Dial"))
			if opens {
				t.Errorf("%s: %s opens a socket outside internal/transport; serve through transport.Server and query through transport.Query*",
					fset.Position(sel.Pos()), name)
			}
			return true
		})
	})
}

// TestOneServeCore fails when a front door reads a client's query bytes
// itself. UDP, TCP/DoT, DoH and the relay's re-dispatch each once carried
// their own scan → wire cache → parse → FORMERR ladder, and DoH had none, so
// an answer being the same at every door was something tests observed. Now
// serveQuery is the only non-test function in internal/transport that calls
// dnswire.ScanQuery, Unpack or ReadStream; the client side (client.go,
// streamclient.go) calls them too, on answers.
func TestOneServeCore(t *testing.T) {
	readers := map[string]bool{"ScanQuery": true, "Unpack": true, "ReadStream": true}
	clients := map[string]bool{"internal/transport/client.go": true, "internal/transport/streamclient.go": true}
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		if !strings.HasPrefix(path, "internal/transport/") || clients[path] {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "serveQuery" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && readers[sel.Sel.Name] {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "dnswire" {
						t.Errorf("%s: %s calls dnswire.%s on query bytes outside the serve core; run them through Server.serveQuery",
							fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	})
}

// TestOneScanProtocol fails when a second non-test function outside
// internal/population asks the wild network for its WarmupDomains: the §4
// protocol (warm up at population.ScanTime, set the clock to
// population.MeasureTime, pin the answer cache read-only, measure) is scan.WarmScanner and nothing else. It was once
// written out five times, and only one copy pinned the cache.
func TestOneScanProtocol(t *testing.T) {
	var callers []string
	eachSourceFile(t, func(path string, _ *token.FileSet, file *ast.File) {
		if strings.HasPrefix(path, "internal/population/") {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "WarmupDomains" {
					callers = append(callers, path+": "+fn.Name.Name)
				}
				return true
			})
		}
	})
	if want := "internal/scan/scan.go: WarmScanner"; len(callers) != 1 || callers[0] != want {
		t.Errorf("WarmupDomains is used by %q, want only %q: every scan starts from scan.WarmScanner", callers, want)
	}
}

// TestOneScenarioLab fails when a scenario driver grows back what the engine
// and the lab own: a second testbed.Build call site, a driver method named
// for the phase loop, the clock, the fault-endpoint lookup or the query ID
// sequence, or a fourth method on the driver interface. Each of those was
// once written out per driver, five times over.
func TestOneScenarioLab(t *testing.T) {
	owned := map[string]bool{"runPhase": true, "network": true, "endpoint": true, "now": true, "newQuery": true}
	builds, ifaceMethods := 0, -1
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		if !strings.HasPrefix(path, "internal/scenario/") {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "testbed" && n.Sel.Name == "Build" {
					builds++
				}
			case *ast.FuncDecl:
				if n.Recv == nil || !owned[n.Name.Name] {
					break
				}
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Driver") {
					t.Errorf("%s: %s declares %s; the engine and the lab own it",
						fset.Position(n.Pos()), id.Name, n.Name.Name)
				}
			case *ast.TypeSpec:
				if it, ok := n.Type.(*ast.InterfaceType); ok && n.Name.Name == "driver" {
					ifaceMethods = it.Methods.NumFields()
				}
			}
			return true
		})
	})
	if builds != 1 {
		t.Errorf("internal/scenario calls testbed.Build at %d sites, want 1 (lab.useTestbed)", builds)
	}
	if ifaceMethods < 0 || ifaceMethods > 3 {
		t.Errorf("the scenario driver interface has %d methods, want at most 3 (setup, act, close)", ifaceMethods)
	}
}

// wallClockAllowed is every place the simulation side of the module may read
// or wait on the wall clock, keyed "file: function: call", each with why it
// does not leak into a replayed outcome. Everything else in those packages
// runs on virtual time: injected latency is charged against the attempt
// budget, validation and serving time come from an injected Now.
var wallClockAllowed = map[string]string{
	"internal/resolver/resolver.go: New: time.Now":            "the default validation clock; every deterministic caller injects Now",
	"internal/resolver/transport.go: sleep: time.NewTimer":    "the real backoff sleep; scenarios and scans inject Sleep",
	"internal/scan/scan.go: run: time.Now":                    "Stats.Elapsed, reported and never folded into an aggregate",
	"internal/scan/scan.go: run: time.Since":                  "Stats.Elapsed, reported and never folded into an aggregate",
	"internal/campaign/limiter.go: NewLimiter: time.Now":      "the default token-bucket clock; tests inject Now",
	"internal/campaign/limiter.go: realSleep: time.NewTimer":  "the real limiter wait; tests inject Sleep",
	"internal/campaign/campaign.go: Progress: time.Since":     "the progress line's domains/s rate, display only",
	"internal/campaign/campaign.go: RunViews: time.Now":       "measurement start and checkpoint cadence; neither reaches the snapshot's canonical payload",
	"internal/campaign/campaign.go: RunViews: time.Since":     "checkpoint cadence",
	"internal/campaign/campaign.go: RunViews: time.NewTicker": "the governor's observation interval",
	"internal/scenario/driver_frontend.go: fill: time.After":  "the fill-settle poll: waits for goroutines to park, decides nothing",
}

// TestWallClockAllowList fails when a non-test file of the packages that
// must replay from a seed touches the wall clock anywhere but at
// wallClockAllowed, and when an allow-list entry has gone stale.
func TestWallClockAllowList(t *testing.T) {
	virtual := []string{"resolver", "netsim", "scan", "campaign", "scenario", "population", "testbed"}
	wall := map[string]bool{
		"time.Now": true, "time.Since": true, "time.Until": true, "time.After": true, "time.AfterFunc": true,
		"time.Sleep": true, "time.Tick": true, "time.NewTimer": true, "time.NewTicker": true,
		"context.WithTimeout": true, "context.WithDeadline": true,
	}
	seen := map[string]bool{}
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		inScope := false
		for _, pkg := range virtual {
			inScope = inScope || strings.HasPrefix(path, "internal/"+pkg+"/")
		}
		if !inScope {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, _ := sel.X.(*ast.Ident)
				if x == nil || !wall[x.Name+"."+sel.Sel.Name] {
					return true
				}
				key := path + ": " + fn.Name.Name + ": " + x.Name + "." + sel.Sel.Name
				seen[key] = true
				if wallClockAllowed[key] == "" {
					t.Errorf("%s: %s reads or waits on the wall clock in a package that must replay from a seed; inject the clock, or add %q to wallClockAllowed with the reason",
						fset.Position(sel.Pos()), x.Name+"."+sel.Sel.Name, key)
				}
				return true
			})
		}
	})
	for key := range wallClockAllowed {
		if !seen[key] {
			t.Errorf("wallClockAllowed entry %q matches nothing; delete it", key)
		}
	}
}

// detachedAllowed is every exported top-level function of this module that
// no non-test file references, each with why it stays.
var detachedAllowed = map[string]string{
	"netsim.NoEDNS":      "a test helper in a product file: an authority that predates EDNS",
	"netsim.Flaky":       "a test helper in a product file: an authority that fails every n-th query",
	"dnssec.VerifyRRSIG": "the memo-free reference verifier the memoised path is tested against",
	"dnssec.CheckRRset":  "the memo-free RRset check, read by the nested bench/ module, which this walk skips",
	"telemetry.WithSpan": "the only way for tests outside telemetry to build the disabled-tracing context",
	"scan.SliceSource":   "read by the nested bench/ module, which this walk skips",
}

// detachedMethodsAllowed is every exported method of this module whose name
// no non-test selector uses, each with why it stays.
var detachedMethodsAllowed = map[string]string{
	"cluster.(*Cluster).OwnerID":                 "read by the nested bench/ module, which this walk skips",
	"frontend.(*Frontend).Metrics":               "read by the nested bench/ module, which this walk skips",
	"scenario.(*ParseError).Unwrap":              "errors.Is and errors.As call it through the unwrap interface",
	"dnswire.(*Message).PackNoCompress":          "the uncompressed encoding dnswire's fuzzers check Pack against and the root name-compression ablation measures",
	"frontend.(*Frontend).FlushCache":            "the cluster tests empty a replica's cache to prove a broadcast refills it",
	"netsim.(*Network).Deregister":               "the resolver tests take an authority off the network mid-resolution",
	"netsim.(*Network).SetLossRate":              "the resolver tests drop a share of every path's queries",
	"resolver.(*Resolver).VerifiesPerResolution": "the population tests pin opt-out proofs' verification cost",
}

// TestNoDetachedExports fails when an exported top-level function of this
// module has no reference in a non-test file, its own package included, and
// is not in detachedAllowed; when an exported method's name appears in no
// non-test selector (x.Name) and the method is not in detachedMethodsAllowed;
// and when an allow-list entry is referenced after all or names nothing. A
// function or method only tests call is a test helper or dead code: move it
// into a test file or delete it.
func TestNoDetachedExports(t *testing.T) {
	const module = "github.com/extended-dns-errors/edelab/"
	decls := map[string]token.Position{}   // "pkg.Func" → its declaration
	refs := map[string]bool{}              // "pkg.Name" referenced from non-test code
	methods := map[string]token.Position{} // "pkg.(*T).Method" → its declaration
	selected := map[string]bool{}          // every name a non-test selector picks
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		pkg := filepath.Base(filepath.Dir(path))
		imports := map[string]string{} // local name → package directory base
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = filepath.Base(p)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || !fn.Name.IsExported():
			case fn.Recv == nil:
				decls[pkg+"."+fn.Name.Name] = fset.Position(fn.Pos())
			default:
				methods[pkg+"."+receiver(fn.Recv.List[0].Type)+"."+fn.Name.Name] = fset.Position(fn.Pos())
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
			}
			return true
		})
		// Record every identifier in an expression position: a selector on
		// an import of this module names that package's function, a bare
		// identifier names one of its own package. Declared names, field
		// names and struct-literal keys name no function.
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						refs[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.KeyValueExpr:
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				refs[pkg+"."+n.Name] = true
			}
			return true
		}
		for _, d := range file.Decls {
			ast.Inspect(d, visit)
		}
	})
	names := make([]string, 0, len(decls))
	for name := range decls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch reason := detachedAllowed[name]; {
		case !refs[name] && reason == "":
			t.Errorf("%s: exported function %s has no non-test caller; delete it, move it into a test file, or add it to detachedAllowed with the reason",
				decls[name], name)
		case refs[name] && reason != "":
			t.Errorf("detachedAllowed entry %q is referenced from non-test code; delete the entry", name)
		}
	}
	for name := range detachedAllowed {
		if _, ok := decls[name]; !ok {
			t.Errorf("detachedAllowed entry %q names no exported function; delete it", name)
		}
	}

	names = names[:0]
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		method := name[strings.LastIndex(name, ".")+1:]
		switch reason := detachedMethodsAllowed[name]; {
		case !selected[method] && reason == "":
			t.Errorf("%s: exported method %s is selected by no non-test code; delete it, move it into a test file, or add it to detachedMethodsAllowed with the reason",
				methods[name], name)
		case selected[method] && reason != "":
			t.Errorf("detachedMethodsAllowed entry %q is selected by non-test code; delete the entry", name)
		}
	}
	for name := range detachedMethodsAllowed {
		if _, ok := methods[name]; !ok {
			t.Errorf("detachedMethodsAllowed entry %q names no exported method; delete it", name)
		}
	}
}

// receiver renders a method's receiver type as T or (*T), type parameters
// dropped.
func receiver(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return "(*" + receiver(e.X) + ")"
	case *ast.IndexExpr:
		return receiver(e.X)
	case *ast.IndexListExpr:
		return receiver(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
