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

// TestOneSocketStack fails when a non-test file outside socketOwners listens
// or dials: net.Listen*, net.Dial*, tls.Listen/Dial*, a net.Dialer or
// net.ListenConfig value, or any DialContext call. A second UDP/TCP server
// or client beside internal/transport is how the front door once came to
// answer the same RFC 6891 question two ways.
func TestOneSocketStack(t *testing.T) {
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
		slash := filepath.ToSlash(path)
		for _, owner := range socketOwners {
			if strings.HasPrefix(slash, owner) {
				return nil
			}
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
