package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported identifiers whose name appears in no
// non-test file of the module except their own declaration: API that only
// tests call. The list may only shrink, save for an oracle that tests pin
// a faster form against (zipf.P, the direct Zipf law that the trace
// generator's popularity table must match bit for bit). A new test-only
// export fails TestTestOnlyExports until it gains a caller or is deleted,
// and an entry that is deleted or gains a non-test caller fails it until
// removed here.
var testOnlyExports = []string{
	"cache.Capacity", "cache.Evict", "cache.Measured", "cache.MostRecent",
	"core.ServerSet",
	"native.WithRetry", "native.WithServePenalty",
	"obs.Bounds", "obs.BucketCount", "obs.ParsePrometheus",
	"policytest.Pending",
	"queuemodel.ConsciousForCatalog", "queuemodel.LRUMiss",
	"queuemodel.LRUZipfMissAsymptotic", "queuemodel.LRUZipfMissChe",
	"queuemodel.ObliviousForCatalog", "queuemodel.RequestRate",
	"queuemodel.SaturatedTokenThroughput",
	"server.DefaultNodeProfile",
	"stats.Stddev",
	"zipf.CDF", "zipf.P",
}

// TestTestOnlyExports scans every Go file in the module. Exported
// functions, methods, types, constants and variables are collected from
// non-test files outside package main (which nothing imports), and a
// declaration is test-only when no non-test file uses its name as an
// identifier anywhere else. The scan matches names, not types: a method is
// kept alive by any same-named identifier, which errs toward keeping API.
func TestTestOnlyExports(t *testing.T) {
	type decl struct{ pkg, name string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		add := func(id *ast.Ident) {
			if !id.IsExported() {
				return
			}
			declared[id] = true
			if f.Name.Name != "main" {
				decls = append(decls, decl{f.Name.Name, id.Name})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				add(dl.Name)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	found := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] == 0 {
			found[d.pkg+"."+d.name] = true
		}
	}
	allowed := map[string]bool{}
	for _, name := range testOnlyExports {
		allowed[name] = true
		if !found[name] {
			t.Errorf("%s is no longer test-only (deleted, or it gained a non-test caller): drop it from testOnlyExports", name)
		}
	}
	var fresh []string
	for name := range found {
		if !allowed[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		t.Errorf("%s is exported but only tests use it: give it a caller or delete it", name)
	}
}
