package spatialcluster

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goFile is one parsed non-test file of the module, under its import path.
type goFile struct {
	pkg string
	src []byte
	ast *ast.File
}

// moduleFiles parses every non-test Go file of the module. A directory with a
// go.mod of its own (bench/) is another module and is skipped.
func moduleFiles(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset, files := token.NewFileSet(), []goFile(nil)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || d.Name() == "testdata" || d.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		files = append(files, goFile{path.Join("spatialcluster", filepath.ToSlash(filepath.Dir(p))), src, f})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// surfaceConfigs are the structs whose fields the header spells out.
var surfaceConfigs = []string{"spatialcluster.StoreConfig", "server.Config", "router.Config", "rtree.Config", "exp.Options", "wal.Options"}

// surface lists, sorted, each package's non-test lines and exported funcs,
// types, methods, struct fields, consts and vars, and each command's flags,
// under a header of totals and the fields of surfaceConfigs.
func surface(fset *token.FileSet, files []goFile) string {
	entries, lines, fields, flags := map[string]bool{}, map[string]int{}, map[string][]string{}, map[string]bool{}
	for _, f := range files {
		lines[f.pkg] += bytes.Count(f.src, []byte("\n"))
		text := func(n ast.Node) string { // n's source, type parameters cut
			s, _, _ := strings.Cut(string(f.src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset]), "[")
			return s
		}
		add := func(kind string, n *ast.Ident, scope string) {
			if n.IsExported() {
				entries[f.pkg+" "+kind+" "+scope+n.Name] = true
			}
		}
		members := func(typ, kind string, list *ast.FieldList) {
			for _, fd := range list.List {
				names := fd.Names
				if len(names) == 0 { // embedded: known by its type's name
					names = []*ast.Ident{ast.NewIdent(text(fd.Type)[strings.LastIndexAny(text(fd.Type), ".*")+1:])}
				}
				for _, n := range names {
					add(kind, n, typ+".")
					if key := path.Base(f.pkg) + "." + typ; kind == "field" && n.IsExported() {
						fields[key] = append(fields[key], n.Name)
					}
				}
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name, "")
				} else if recv := text(d.Recv.List[0].Type); ast.IsExported(strings.TrimLeft(recv, "*")) {
					add("method", d.Name, "("+recv+").")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.ValueSpec); ok {
						for _, n := range s.Names {
							add(d.Tok.String(), n, "")
						}
					} else if s, ok := spec.(*ast.TypeSpec); ok && s.Name.IsExported() {
						add("type", s.Name, "")
						if st, ok := s.Type.(*ast.StructType); ok {
							members(s.Name.Name, "field", st.Fields)
						} else if it, ok := s.Type.(*ast.InterfaceType); ok {
							members(s.Name.Name, "method", it.Methods)
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			// A flag is named by its definition's first argument, the second
			// for the *Var forms; a computed name is listed as written.
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 || !strings.HasPrefix(f.pkg, "spatialcluster/cmd/") {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && text(sel.X) == "flag" {
				name := text(call.Args[0])
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					name = text(call.Args[1])
				}
				if s, err := strconv.Unquote(name); err == nil {
					name = "-" + s
				}
				flags[f.pkg+" flag "+name] = true
			}
			return true
		})
	}
	exported, flagCount, total := len(entries), len(flags), 0
	for pkg, n := range lines {
		entries[fmt.Sprintf("%s lines %d", pkg, n)] = true
		total += n
	}
	body := make([]string, 0, len(entries)+len(flags))
	for e := range entries {
		body = append(body, e)
	}
	for e := range flags {
		body = append(body, e)
	}
	sort.Strings(body)
	head := fmt.Sprintf("# The module's surface, written by TestSurface (surface_test.go). Accept a\n"+
		"# change by running `go test -run TestSurface .` twice and committing this file.\n"+
		"packages %d, exported identifiers %d, flags %d, non-test lines %d\n", len(lines), exported, flagCount, total)
	for _, c := range surfaceConfigs {
		head += fmt.Sprintf("%s %d: %s\n", c, len(fields[c]), strings.Join(fields[c], " "))
	}
	return head + strings.Join(body, "\n") + "\n"
}

// TestSurface holds SURFACE.txt to the module as it is: an export, config
// field, flag or line count that changes fails the test, which prints the
// lines that changed and rewrites the file, so a second run passes and the
// change is reviewed as a diff.
func TestSurface(t *testing.T) {
	got := surface(moduleFiles(t))
	old, err := os.ReadFile("SURFACE.txt")
	if got == string(old) {
		return
	}
	if werr := os.WriteFile("SURFACE.txt", []byte(got), 0o644); werr != nil || err != nil {
		t.Fatalf("SURFACE.txt was unreadable (%v); writing it anew: %v", err, werr)
	}
	count, diff := map[string]int{}, []string(nil)
	for _, l := range strings.Split(string(old), "\n") {
		count[l]--
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	for l, n := range count {
		if n > 0 {
			diff = append(diff, "+ "+l)
		} else if n < 0 {
			diff = append(diff, "- "+l)
		}
	}
	slices.SortFunc(diff, func(a, b string) int { return strings.Compare(a[2:], b[2:]) })
	t.Errorf("SURFACE.txt differed and is rewritten; review and commit it:\n%s", strings.Join(diff, "\n"))
}

// TestOneStoreBuilder: only the facade's builder opens a file backend or
// parses a buffer policy, so there is one way to build a store.
func TestOneStoreBuilder(t *testing.T) {
	fset, files := moduleFiles(t)
	builders, callers := []string{"filebackend.Open", "buffer.ParsePolicy"}, map[string][]string{}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if name := fmt.Sprint(sel.X, ".", sel.Sel); slices.Contains(builders, name) && !strings.HasPrefix(name, path.Base(f.pkg)+".") {
					callers[name] = append(callers[name], fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
	}
	for _, name := range builders {
		if len(callers[name]) != 1 {
			t.Errorf("%s is named by %d non-test files outside its package, want 1: %v", name, len(callers[name]), callers[name])
		}
	}
}

// TestOneRequestPath: what every endpoint of both daemons shares is declared
// once under internal/ — reading a JSON body (readJSON or ReadJSON), reading
// a binary record, the status recorder and the trace switch.
func TestOneRequestPath(t *testing.T) {
	_, files := moduleFiles(t)
	decls := map[string]int{}
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "spatialcluster/internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				decls[strings.ToLower(fd.Name.Name[:1])+fd.Name.Name[1:]]++
			} else if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					decls[spec.(*ast.TypeSpec).Name.Name]++
				}
			}
		}
	}
	for _, name := range []string{"readJSON", "readBinRecord", "statusRecorder", "traceFor"} {
		if decls[name] != 1 {
			t.Errorf("%s is declared %d times under internal/, want 1", name, decls[name])
		}
	}
}

// TestDocsLinks: every relative link in README.md and docs/*.md names a file
// that exists. PAPERS.md and SNIPPETS.md are generated reference dumps.
func TestDocsLinks(t *testing.T) {
	docs, _ := filepath.Glob("docs/*.md")
	link, remote := regexp.MustCompile(`\]\(([^)\n]+)\)`), regexp.MustCompile(`^(https?|mailto):`)
	for _, doc := range append(docs, "README.md") {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllStringSubmatch(string(src), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || remote.MatchString(target) {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s: broken link -> %s", doc, target)
			}
		}
	}
}
