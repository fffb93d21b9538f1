package hybridcc

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAPI keeps the public surface a checked contract, as Go's own api/
// check does for the standard library: every exported identifier of
// package hybridcc, rendered one per line by exportedAPI, must match
// api.txt.  A change to the surface is made on purpose, by editing
// api.txt in the same change.
func TestAPI(t *testing.T) {
	got := exportedAPI(t)
	b, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if !sort.StringsAreSorted(want) {
		t.Error("api.txt is not sorted")
	}

	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
	}
	var diff []string
	for _, l := range got {
		if !inWant[l] {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			diff = append(diff, "- "+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("the exported API differs from api.txt (+ new, - gone):\n%s\n"+
			"If the change is intended, update api.txt to match and say why in CHANGES.md.",
			strings.Join(diff, "\n"))
	}
}

// exportedAPI renders every exported declaration of the package's non-test
// files as one line, sorted: funcs and methods with their signatures,
// types (a struct one line per exported field), consts and vars.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ft, ok := n.(*ast.FuncType); ok {
				ft.Params, ft.Results = unnamed(ft.Params), unnamed(ft.Results)
			}
			return true
		})
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "hybridcc")
	if err != nil {
		t.Fatal(err)
	}

	node := func(n any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	var lines []string
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			kind := v.Decl.Tok.String()
			for _, s := range v.Decl.Specs {
				spec := s.(*ast.ValueSpec)
				for i, n := range spec.Names {
					if !n.IsExported() {
						continue
					}
					switch {
					case spec.Type != nil:
						lines = append(lines, kind+" "+n.Name+" "+node(spec.Type))
					case i < len(spec.Values):
						lines = append(lines, kind+" "+n.Name+" = "+node(spec.Values[i]))
					default: // an iota continuation
						lines = append(lines, kind+" "+n.Name)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			sig := f.Name + strings.TrimPrefix(node(f.Decl.Type), "func")
			if f.Recv != "" {
				sig = "method (" + f.Recv + ") " + sig
			} else {
				sig = "func " + sig
			}
			lines = append(lines, sig)
		}
	}

	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		for _, s := range typ.Decl.Specs {
			ts := s.(*ast.TypeSpec)
			prefix := "type " + ts.Name.Name
			if ts.TypeParams != nil {
				var params []string
				for _, f := range ts.TypeParams.List {
					for _, n := range f.Names {
						params = append(params, n.Name+" "+node(f.Type))
					}
				}
				prefix += "[" + strings.Join(params, ", ") + "]"
			}
			switch u := ts.Type.(type) {
			case *ast.StructType:
				lines = append(lines, prefix+" struct")
				for _, f := range u.Fields.List {
					for _, n := range f.Names {
						lines = append(lines, prefix+" struct, "+n.Name+" "+node(f.Type))
					}
					if len(f.Names) == 0 { // embedded
						lines = append(lines, prefix+" struct, embedded "+node(f.Type))
					}
				}
			default:
				if ts.Assign.IsValid() {
					prefix += " ="
				}
				lines = append(lines, prefix+" "+node(ts.Type))
			}
		}
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(lines)
	return lines
}

// unnamed drops the parameter names from a field list, so renaming a
// parameter does not change the API.
func unnamed(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		for range max(len(f.Names), 1) {
			out.List = append(out.List, &ast.Field{Type: f.Type})
		}
	}
	return out
}
