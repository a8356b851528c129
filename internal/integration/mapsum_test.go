package integration

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mapSumAllowed lists the float accumulations inside a range over a map
// whose result cannot depend on the iteration order, keyed
// "file:func:variable", each with the reason.
var mapSumAllowed = map[string]string{
	"internal/committee/committee.go:entropyWithIncrement:total": "sums integer counts, which float64 adds exactly in any order",
}

// TestNoFloatSumInMapOrder: Go randomises map iteration, and float addition
// is not associative, so a float accumulated across the iterations of a
// range over a map can differ from run to run in its last bits, and so can
// every verdict compared against it. The test type-checks the module's
// non-test packages outside bench/ and fails on a += or -= into a float
// declared outside the innermost enclosing range over a map, unless
// mapSumAllowed says why that site is order-independent. An allowlist
// entry that matches no site fails too.
func TestNoFloatSumInMapOrder(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var found []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || name == "testdata" || dir == filepath.Join(root, "bench")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		var files []*ast.File
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		path := filepath.ToSlash(filepath.Join("repro", rel))
		if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
			return fmt.Errorf("type-check %s: %w", path, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				file := filepath.ToSlash(filepath.Join(rel, filepath.Base(fset.File(fn.Pos()).Name())))
				for _, s := range mapOrderSums(info, fn.Body) {
					key := file + ":" + fn.Name.Name + ":" + s.name
					seen[key] = true
					if _, ok := mapSumAllowed[key]; !ok {
						found = append(found, fmt.Sprintf("%s:%d: %s %s into %s across a range over a map",
							file, fset.Position(s.at).Line, fn.Name.Name, s.op, s.name))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: sum in a defined order (sort the keys, or keep a slice), or allowlist it with a reason", f)
	}
	for key := range mapSumAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no site; drop it", key)
		}
	}
}

// mapOrderSum is one float += / -= whose target outlives an iteration of
// the innermost range over a map around it.
type mapOrderSum struct {
	at   token.Pos
	op   token.Token
	name string // the target's root variable
}

// mapOrderSums walks body, function literals included, for mapOrderSum
// sites.
func mapOrderSums(info *types.Info, body *ast.BlockStmt) []mapOrderSum {
	var out []mapOrderSum
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || !isFloat(info.TypeOf(as.Lhs[0])) {
			return true
		}
		id := rootIdent(as.Lhs[0])
		if id == nil {
			return true
		}
		obj := info.Uses[id]
		for _, anc := range slices.Backward(stack) {
			rs, ok := anc.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				continue
			}
			if obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()) {
				out = append(out, mapOrderSum{at: as.Pos(), op: as.Tok, name: id.Name})
			}
			break
		}
		return true
	})
	return out
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent is the variable an assignable expression writes through:
// x for x, x.f, x[i], *x and (x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
