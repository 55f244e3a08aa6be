package wexp

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The exported surface of this package is pinned to a golden file so that
// any API change — a new function, a renamed field, a signature edit —
// shows up as an explicit diff in review instead of slipping through.
// Regenerate after an intentional change with:
//
//	make api            (equivalently: UPDATE_API=1 go test -run TestAPISurfaceGolden .)

const apiGoldenPath = "testdata/api/wexp.txt"

var updateAPI = os.Getenv("UPDATE_API") != ""

// rootSourceFiles returns the non-test Go files of the root package.
func rootSourceFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	sort.Strings(files)
	return files
}

// deprecatedFacadeNames returns every exported root-package name whose doc
// comment carries a "Deprecated:" marker, mapped to its declaring file.
func deprecatedFacadeNames(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]string{}
	for _, file := range rootSourceFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		mark := func(name *ast.Ident, doc *ast.CommentGroup) {
			if name.IsExported() && doc != nil && strings.Contains(doc.Text(), "Deprecated:") {
				out[name.Name] = file
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					mark(d.Name, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						mark(s.Name, doc)
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, n := range s.Names {
							mark(n, doc)
						}
					}
				}
			}
		}
	}
	return out
}

// apiSurface renders the exported declarations of the root package: every
// exported func/method signature (bodies stripped) and every exported
// const/var/type, sorted, with deprecated entries flagged.
func apiSurface(t *testing.T) string {
	t.Helper()
	deprecated := deprecatedFacadeNames(t)
	fset := token.NewFileSet()
	var blocks []string
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, file := range rootSourceFiles(t) {
		// Parsed without comments so the printer emits bare declarations.
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if id, ok := recv.(*ast.Ident); ok && !id.IsExported() {
						continue
					}
					if star, ok := recv.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && !id.IsExported() {
							continue
						}
					}
				}
				d.Body = nil
				s := render(d)
				if _, dep := deprecated[d.Name.Name]; dep && d.Recv == nil {
					s = "DEPRECATED " + s
				}
				blocks = append(blocks, s)
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				var specs []ast.Spec
				depGroup := false
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							specs = append(specs, s)
							if _, dep := deprecated[s.Name.Name]; dep {
								depGroup = true
							}
						}
					case *ast.ValueSpec:
						exported := false
						for _, n := range s.Names {
							if n.IsExported() {
								exported = true
							}
							if _, dep := deprecated[n.Name]; dep {
								depGroup = true
							}
						}
						if exported {
							specs = append(specs, s)
						}
					}
				}
				if len(specs) == 0 {
					continue
				}
				d.Specs = specs
				s := render(d)
				if depGroup {
					s = "DEPRECATED " + s
				}
				blocks = append(blocks, s)
			}
		}
	}
	sort.Strings(blocks)
	return "package wexp\n\n" + strings.Join(blocks, "\n\n") + "\n"
}

// TestAPISurfaceGolden pins the exported API of package wexp to
// testdata/api/wexp.txt. A failure here means the public surface changed:
// review the diff, then run `make api` to accept it.
func TestAPISurfaceGolden(t *testing.T) {
	got := apiSurface(t)
	if updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `make api` to generate the golden)", err)
	}
	if got != string(want) {
		t.Fatalf("exported API surface drifted from %s — review the change, then run `make api`.\n--- got ---\n%s\n--- want ---\n%s",
			apiGoldenPath, got, want)
	}
}
