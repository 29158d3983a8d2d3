package indexedrec

// TestDocCoverage is the documentation gate: every package must carry a
// package comment and every exported symbol a doc comment. It runs as part
// of the ordinary test suite (and therefore in CI) using only go/parser, so
// there is nothing to install and nothing network-dependent. The gate is
// deliberately strict — an exported name without a doc comment fails the
// build, which is what keeps the godoc audit from regressing.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDocCoverage(t *testing.T) {
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			checkPackageDocs(t, fset, dir, pkg)
		}
	}
}

func checkPackageDocs(t *testing.T, fset *token.FileSet, dir string, pkg *ast.Package) {
	t.Helper()
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		t.Errorf("package %s (%s) has no package comment", pkg.Name, dir)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue // method of an unexported type: not API surface
				}
				t.Errorf("%s: exported %s lacks a doc comment", fset.Position(d.Pos()), d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							t.Errorf("%s: exported type %s lacks a doc comment", fset.Position(sp.Pos()), sp.Name.Name)
						}
					case *ast.ValueSpec:
						if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
							continue
						}
						for _, name := range sp.Names {
							if name.IsExported() {
								t.Errorf("%s: exported %s lacks a doc comment", fset.Position(name.Pos()), name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// TestDocFileContract is the stricter half of the doc gate: the packages
// listed here must carry their package comment in a file literally named
// doc.go, not inline above some arbitrary declaration. A dedicated doc.go is
// where the package-level invariants live (see internal/scan/doc.go for the
// template), and pinning the file name keeps `go doc` output, the DESIGN
// cross-references, and future package splits from silently dropping it.
// Adding a package to the repo does not add it here automatically — promote
// it once it has a real doc.go.
func TestDocFileContract(t *testing.T) {
	pkgs := []string{
		"internal/core",
		"internal/graph",
		"internal/grid2d",
		"internal/jsonwire",
		"internal/moebius",
		"internal/ordinary",
		"internal/parallel",
		"internal/scan",
		"internal/server",
		"internal/session",
		"internal/trace",
		"internal/workload",
	}
	for _, dir := range pkgs {
		path := filepath.Join(dir, "doc.go")
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("%s: missing or unparsable doc.go: %v", dir, err)
			continue
		}
		if f.Doc == nil || len(strings.TrimSpace(f.Doc.Text())) == 0 {
			t.Errorf("%s: doc.go exists but carries no package comment", dir)
		}
	}
}

// exportedReceiver reports whether a method receiver names an exported type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
