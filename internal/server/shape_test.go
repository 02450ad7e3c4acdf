package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueriesBypassTheDispatcher holds two rules of the request path that no
// behaviour shows, read off the package's syntax: dispatch.go — the mutation
// dispatcher — calls no query method of an organization, because a query runs
// on its request's goroutine (Server.query); and the engine counter snapshot
// (takeIOSnap) is taken by runBatch alone, because a query tallies its own
// I/O and only a traced mutation batch is attributed by counter deltas.
func TestQueriesBypassTheDispatcher(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]bool{"WindowQuery": true, "PointQuery": true, "NearestQuery": true, "WindowQueryOptimum": true}
	snapCallers := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "takeIOSnap" {
						snapCallers[fd.Name.Name]++
					}
				}
				return true
			})
		}
		if name != "dispatch.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.SelectorExpr); ok && queries[fn.Sel.Name] {
					t.Errorf("%s calls %s: queries do not go through the dispatcher", fset.Position(call.Pos()), fn.Sel.Name)
				}
			}
			return true
		})
	}
	if len(snapCallers) != 1 || snapCallers["runBatch"] == 0 {
		t.Errorf("takeIOSnap is called by %v, want runBatch alone", snapCallers)
	}
}
