// Test-only API check: every exported function or method declared in a
// non-test file under internal/ must be referenced from some non-test
// file in cmd/, examples/, internal/, nbhdbench/ or the root package,
// unless the allowlist below names it with a reason. An export that only
// tests call is code the program carries for nothing; this keeps such
// exports from growing back. The scanned files are type-checked with
// go/types, so a method counts as called only through its own receiver
// type (or an interface it satisfies), never through a same-named
// method of another type. Runs under plain `go test ./...`.
package nbhd

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names exports that may lack a non-test caller, keyed
// "importpath.Func" or "importpath.Type.Method", each with its reason.
var testOnlyAllowed = map[string]string{
	"nbhd/internal/backend.Open":                   "paper benchmark: bench_test.go opens the four LLM backends by spec",
	"nbhd/internal/classify.Model.Predict":         "reference implementation: PredictBatch and the cnn adapter are tested against it",
	"nbhd/internal/dataset.ApplyCondition":         "reference implementation: ConditionInto is tested against it",
	"nbhd/internal/dataset.RenderCache.StoreHits":  "test seam: counts frames the persistent tier served",
	"nbhd/internal/ensemble.PaperCommittee":        "paper benchmark: the paper's top-3 committee in the black-box and integration suites",
	"nbhd/internal/experiment.DiffRuns":            "test seam: checkpoint and lab black-box tests diff resumed runs byte for byte",
	"nbhd/internal/experiment.Store.RunDir":        "test seam: tests reach a saved run's files on disk",
	"nbhd/internal/experiment.Store.Runs":          "test seam: checkpoint tests list the saved runs",
	"nbhd/internal/fleet.Supervisor.DrainReplica":  "test seam: supervisor tests drain a replica on demand",
	"nbhd/internal/fleet.Supervisor.KillReplica":   "test seam: supervisor tests kill a replica on demand",
	"nbhd/internal/geoindex.Index.Nearest":         "paper benchmark: BenchmarkNearest in spatial_bench_test.go",
	"nbhd/internal/gsv.Server.Usage":               "test seam: quota tests count the requests a key spent",
	"nbhd/internal/lab.Lab.Kill":                   "test seam: black-box tests simulate a crash mid-run",
	"nbhd/internal/labelme.Record.Objects":         "reference implementation: labelme tests round-trip annotations through it",
	"nbhd/internal/labelme.Store.Get":              "test seam: labelme tests read a stored record back",
	"nbhd/internal/labelme.Store.Len":              "test seam: labelme tests count the stored records",
	"nbhd/internal/labelme.Store.TotalObjects":     "test seam: pipeline tests check the annotated object count (the paper's 1,927)",
	"nbhd/internal/llmclient.Client.Models":        "test seam: client tests list the models an in-process llmserve offers",
	"nbhd/internal/llmserve.Server.RequestsServed": "test seam: client tests count the requests a fake server answered",
	"nbhd/internal/metrics.ClassReport.Add":        "fixture: metrics tests build reports pair by pair",
	"nbhd/internal/metrics.ClassReport.Row":        "test seam: metrics tests check one table row's layout",
	"nbhd/internal/store.Store.Stats":              "test seam: store and memory tests read the footprint counters",
	"nbhd/internal/store.Store.Sync":               "test seam: store tests flush a writer so a reader sees its records",
	"nbhd/internal/tensor.FromSlice":               "fixture: builds tensors at 50+ test sites, bit-identity tests included",
	"nbhd/internal/tensor.Tensor.Clone":            "fixture: tensor tests copy a tensor before mutating it",
	"nbhd/internal/tensor.Tensor.UniformInit":      "fixture: seeds test tensors at 50+ sites, bit-identity tests included",
	"nbhd/internal/yolo.Load":                      "format reader: reads back the weights file cmd/trainyolo writes",
}

// scanRoots are the directories whose non-test files count as callers.
// "." stands for the root package's own files only.
var scanRoots = []string{"cmd", "examples", "internal", "nbhdbench", "."}

// parseNonTestFiles parses every scanned non-test file that builds on
// this platform, grouped by the import path of its package.
func parseNonTestFiles(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	pkgs := make(map[string][]*ast.File)
	add := func(p string) {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "nbhd"
		if dir != "." {
			pkg = "nbhd/" + dir
		}
		pkgs[pkg] = append(pkgs[pkg], f)
	}
	isSource := func(p string) bool {
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return false
		}
		ok, err := build.Default.MatchFile(filepath.Dir(p), filepath.Base(p))
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	for _, root := range scanRoots {
		if root == "." {
			matches, err := filepath.Glob("*.go")
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				if isSource(m) {
					add(m)
				}
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && isSource(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// sourceImporter type-checks the scanned packages from their parsed
// files, each once, recording every package's uses and definitions in
// one shared Info; the standard library comes from std.
type sourceImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	checked map[string]*types.Package
	info    *types.Info
	std     types.Importer
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	files, ok := s.files[path]
	if !ok {
		return s.std.Import(path)
	}
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.checked[path] = p
	return p, nil
}

// exportKey names a function "importpath.Func" and a method
// "importpath.Type.Method", the allowlist's keys.
func exportKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// receiverNamed returns a method's receiver type, without pointer, or
// nil for a function or an interface method.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// TestNoTestOnlyExports resolves every reference in the scanned non-test
// files to the function or method it names. A method also counts as
// called when some scanned file calls the same method of an interface
// its type (or a pointer to it) implements. A function's references to
// itself do not count.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTestFiles(t, fset)
	src := &sourceImporter{
		fset:    fset,
		files:   files,
		checked: make(map[string]*types.Package),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
		std: importer.Default(),
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := src.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	type decl struct {
		fn  *types.Func
		key string
		pos token.Position
	}
	var decls []decl
	for _, p := range paths {
		if !strings.HasPrefix(p, "nbhd/internal/") {
			continue
		}
		for _, f := range files[p] {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := src.info.Defs[fn.Name].(*types.Func)
				if named := receiverNamed(obj); named != nil && !named.Obj().Exported() {
					continue // unreachable by name from outside the package
				}
				decls = append(decls, decl{fn: obj, key: exportKey(obj), pos: fset.Position(fn.Pos())})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; the scan is wrong")
	}

	used := make(map[*types.Func]bool)
	var ifaceMethods []*types.Func // interface methods some file calls
	for _, p := range paths {
		for _, f := range files[p] {
			for _, d := range f.Decls {
				var self types.Object
				if fn, ok := d.(*ast.FuncDecl); ok {
					self = src.info.Defs[fn.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := src.info.Uses[id].(*types.Func)
					if !ok || fn == self {
						return true
					}
					fn = fn.Origin()
					if !used[fn] {
						used[fn] = true
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceMethods = append(ifaceMethods, fn)
						}
					}
					return true
				})
			}
		}
	}
	// The standard library calls the methods of the interfaces it
	// declares (fmt.Stringer, error, json.Marshaler, ...) from code this
	// scan does not see, so those count as called.
	for _, p := range paths {
		for _, imp := range src.checked[p].Imports() {
			if _, ours := files[imp.Path()]; ours {
				continue
			}
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !types.IsInterface(tn.Type()) {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				iface := tn.Type().Underlying().(*types.Interface)
				for i := 0; i < iface.NumMethods(); i++ {
					ifaceMethods = append(ifaceMethods, iface.Method(i))
				}
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaceMethods = append(ifaceMethods, errIface.Method(0))
	calledViaInterface := func(fn *types.Func) bool {
		named := receiverNamed(fn)
		if named == nil {
			return false
		}
		for _, im := range ifaceMethods {
			if im.Name() != fn.Name() {
				continue
			}
			iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	listed := make(map[string]bool)
	for _, d := range decls {
		called := used[d.fn] || calledViaInterface(d.fn)
		if _, ok := testOnlyAllowed[d.key]; ok {
			listed[d.key] = true
			if called {
				t.Errorf("allowlist entry %s now has a caller outside tests; drop the entry", d.key)
			}
			continue
		}
		if !called {
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests; delete it, or allowlist it with a reason", u)
	}
	for key, reason := range testOnlyAllowed {
		if !listed[key] {
			t.Errorf("allowlist entry %s names no exported declaration under internal/", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
}
