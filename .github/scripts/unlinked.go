// Command unlinked fails when a function declared under internal/ is linked
// into none of the programs the repo ships or benchmarks, unless
// .github/unlinked-allow.txt lists it with the reason it stays.
//
//	go run .github/scripts/unlinked.go
//
// It builds ./cmd/... and ./bench with inlining off, so every function a
// program calls keeps its own symbol, and reads their text symbols with go
// tool nm. Instantiations ("[…]"), closures (".funcN") and method values
// ("-fm") count for the function that declares them; init is skipped. The
// declared side is every func in a non-test file under internal/, except
// internal/integration (cross-package tests and the helper the Example
// tests print through). An allowlist entry that is linked or no longer
// declared fails too, so the list cannot go stale.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = ".github/unlinked-allow.txt"

func main() {
	linked, err := linkedFuncs()
	check(err)
	declared, err := declaredFuncs()
	check(err)
	allow, problems, err := readAllow()
	check(err)
	for sym, pos := range declared {
		if !linked[sym] && allow[sym] == "" {
			problems = append(problems, pos+": "+sym+" is linked into no program (delete it, or allowlist it with a reason)")
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			problems = append(problems, allowFile+": "+sym+" is allowlisted but no longer declared")
		} else if linked[sym] {
			problems = append(problems, allowFile+": "+sym+" is allowlisted but linked")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		fmt.Fprintln(os.Stderr, strings.Join(problems, "\n"))
		os.Exit(1)
	}
	fmt.Printf("%d functions under internal/: %d linked, %d allowlisted\n", len(declared), len(declared)-len(allow), len(allow))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(2)
	}
}

// linkedFuncs builds every program and returns the internal functions their
// symbol tables hold, named as declaredFuncs names them.
func linkedFuncs() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./bench")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w", err)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				if sym := funcOf(strings.Join(f[2:], " ")); sym != "" {
					linked[sym] = true
				}
			}
		}
	}
	return linked, nil
}

// wrapped matches what the compiler appends to a function's name for a
// closure, a go or defer wrapper, a numbered init or a method value.
var wrapped = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+|\.|-.*)+$`)

// funcOf maps a linked symbol such as
// "repro/internal/vuln.(*GroupInjector[…]).Rebuild.func2" to the function
// that declares it, "vuln.GroupInjector.Rebuild", or "" when it is none.
func funcOf(sym string) string {
	sym, ok := strings.CutPrefix(sym, "repro/internal/")
	if !ok {
		return ""
	}
	if i, j := strings.IndexByte(sym, '['), strings.LastIndexByte(sym, ']'); i >= 0 && j > i {
		sym = sym[:i] + sym[j+1:] // one instantiation per symbol, nested brackets inside
	}
	sym = strings.NewReplacer("(*", "", ")", "").Replace(wrapped.ReplaceAllString(sym, ""))
	if name := sym[strings.IndexByte(sym, '.')+1:]; name == "init" || name == "glob" {
		return ""
	}
	return sym
}

// declaredFuncs returns every func in a non-test file under internal/,
// keyed "pkg.Func" or "pkg.Type.Method", with its position.
func declaredFuncs() (map[string]string, error) {
	declared := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && (d.Name() == "testdata" || path == filepath.Join("internal", "integration")) {
				return filepath.SkipDir
			}
			return err
		}
		dir, name := filepath.Split(path)
		if strings.HasSuffix(name, "_test.go") || filepath.Ext(name) != ".go" {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel("internal", dir)
		if err != nil {
			return err
		}
		pkg = filepath.ToSlash(pkg)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name != "init" {
				sym := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*"), "[")
					sym = pkg + "." + recv + "." + fn.Name.Name
				}
				declared[sym] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	return declared, err
}

// readAllow reads the allowlist: one "pkg.Func  # reason" per line; blank
// lines and lines that start with # are skipped. An entry without a
// reason, or listed twice, is a problem.
func readAllow() (map[string]string, []string, error) {
	data, err := os.ReadFile(allowFile)
	if err != nil {
		return nil, nil, err
	}
	allow := map[string]string{}
	var problems []string
	for n, line := range strings.Split(string(data), "\n") {
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		switch {
		case sym == "":
		case reason == "" || allow[sym] != "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s is listed twice or has no reason", allowFile, n+1, sym))
		default:
			allow[sym] = reason
		}
	}
	return allow, problems, nil
}
