package server

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// nonTestFiles parses the package's non-test files, by file name.
func nonTestFiles(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset, files := token.NewFileSet(), map[string]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if files[name], err = parser.ParseFile(fset, name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	return fset, files
}

// TestQueriesBypassTheDispatcher holds two rules of the request path that no
// behaviour shows, read off the package's syntax: dispatch.go — the mutation
// dispatcher — calls no query method of an organization, because a query runs
// on its request's goroutine (Server.query); and the engine counter snapshot
// (takeIOSnap) is taken by runBatch alone, because a query tallies its own
// I/O and only a traced mutation batch is attributed by counter deltas.
func TestQueriesBypassTheDispatcher(t *testing.T) {
	fset, files := nonTestFiles(t)
	queries := map[string]bool{"WindowQuery": true, "PointQuery": true, "NearestQuery": true, "WindowQueryOptimum": true}
	snapCallers := map[string]int{}
	for name, f := range files {
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

// TestOneTransport: the package's exchanges go through its own transport
// alone. Its non-test code names neither http.Transport nor
// http.DefaultTransport, so no second pool of connections, with a read and a
// write goroutine for each, comes back beside it; nor http.ReadResponse, so
// the transport's codec stays the package's one parser of an answer's head.
func TestOneTransport(t *testing.T) {
	fset, files := nonTestFiles(t)
	named := []string{"Transport", "DefaultTransport", "ReadResponse"}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "http" && slices.Contains(named, sel.Sel.Name) {
					t.Errorf("%s names http.%s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestRequestPathShape: the dispatcher batches what has arrived, so
// dispatch.go and server.go start no timer and do not sleep; and the untraced
// JSON data plane skips encoding/json both ways, so codec.go names no encoder,
// and each of its paths reaches encoding/json — json.Marshal,
// json.NewEncoder, json.NewDecoder, a Client call that marshals, or Reply
// with an answer — only after its appender or scanner has declined: the
// Front's answers, ReadJSON (every body the Front and the Client read) and
// the Client's six requests.
func TestRequestPathShape(t *testing.T) {
	fset, files := nonTestFiles(t)
	timers := []string{"time.NewTimer", "time.NewTicker", "time.After", "time.AfterFunc", "time.Sleep", "time.Tick"}
	for file, names := range map[string][]string{"dispatch.go": timers, "server.go": timers, "codec.go": {"json.NewEncoder", "json.Marshal", "json.MarshalIndent"}} {
		ast.Inspect(files[file], func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(names, fmt.Sprint(sel.X, ".", sel.Sel)) {
				t.Errorf("%s names %s.%s", fset.Position(sel.Pos()), sel.X, sel.Sel)
			}
			return true
		})
	}
	slow := []string{"json.Marshal", "json.NewEncoder", "json.NewDecoder", "c.Post"}
	for _, path := range []struct{ file, fn, fast string }{
		{"front.go", "replyQuery", "appendAnswer"},
		{"front.go", "knn", "appendAnswer"},
		{"front.go", "replyMutate", "appendMutate"},
		{"front.go", "reply", "enc"},
		{"codec.go", "ReadJSON", "scanBody"},
		{"client.go", "window", "appendWindowReq"},
		{"client.go", "point", "appendPointReq"},
		{"client.go", "knn", "appendPointReq"},
		{"client.go", "mutate", "appendObjectReq"},
		{"client.go", "Delete", "appendDeleteReq"},
	} {
		var fd *ast.FuncDecl
		for _, decl := range files[path.file].Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == path.fn {
				fd = d
			}
		}
		if fd == nil {
			t.Errorf("%s declares no %s", path.file, path.fn)
			continue
		}
		fast := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := fmt.Sprint(call.Fun)
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				name = fmt.Sprint(sel.X, ".", sel.Sel)
			}
			fast = fast || name == path.fast
			answer := name == "Reply" && len(call.Args) > 1 && !isNil(call.Args[1])
			if !fast && (answer || slices.Contains(slow, name)) {
				t.Errorf("%s: %s reaches %s before %s", fset.Position(call.Pos()), path.fn, name, path.fast)
			}
			return true
		})
		if !fast {
			t.Errorf("%s: %s does not call %s", path.file, path.fn, path.fast)
		}
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
