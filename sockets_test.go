package edelab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// socketOwners is where opening a socket is allowed: internal/transport
// serves and queries DNS on real sockets for everyone else; the three files
// open sockets that are not a DNS door (the cluster's forward hop, the HTTP
// admin plane, the listeners a chaos scenario points transport.StreamClient
// at); commands and examples bind the addresses their flags name.
var socketOwners = []string{
	"internal/transport/",
	"internal/cluster/remote.go",
	"internal/telemetry/admin.go",
	"internal/scenario/driver_stream.go",
	"cmd/",
	"examples/",
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

// TestOneScanProtocol fails when a second non-test function outside
// internal/population asks the wild network for its WarmupDomains: the §4
// protocol (warm up, advance the clock two hours, pin the answer cache
// read-only, measure) is scan.WarmScanner and nothing else. It was once
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
