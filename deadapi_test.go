// Test-only API check: every exported function or method declared in a
// non-test file under internal/ must be referenced from some non-test
// file in cmd/, examples/, internal/, nbhdbench/ or the root package,
// unless the allowlist below names it with a reason. An export that only
// tests call is code the program carries for nothing; this keeps such
// exports from growing back. Runs under plain `go test ./...`.
package nbhd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names exports that may lack a non-test caller, keyed
// "importpath.Func" or "importpath.Type.Method", each with its reason.
var testOnlyAllowed = map[string]string{
	"nbhd/internal/analysis.RegressionResult.Predict":    "test seam: tests check a fitted regression by its predictions",
	"nbhd/internal/backend.Open":                         "paper benchmark: bench_test.go opens the four LLM backends by spec",
	"nbhd/internal/classify.Model.ParamCount":            "test seam: tests pin the CNN's size",
	"nbhd/internal/classify.Model.Predict":               "reference implementation: PredictBatch and the cnn adapter are tested against it",
	"nbhd/internal/core.Pipeline.DetectorPresenceReport": "paper benchmark: Table I in bench_test.go and ablation_bench_test.go",
	"nbhd/internal/dataset.ApplyCondition":               "reference implementation: ConditionInto is tested against it",
	"nbhd/internal/dataset.RenderCache.Examples":         "fixture: cache tests fetch frame lists through it",
	"nbhd/internal/dataset.RenderCache.StoreHits":        "test seam: counts frames the persistent tier served",
	"nbhd/internal/ensemble.PaperCommittee":              "paper benchmark: the paper's top-3 committee in the black-box and integration suites",
	"nbhd/internal/experiment.DiffRuns":                  "test seam: checkpoint and lab black-box tests diff resumed runs byte for byte",
	"nbhd/internal/experiment.EnvelopeKinds":             "test seam: the robustness test walks every enveloped backend kind",
	"nbhd/internal/experiment.Store.RunDir":              "test seam: tests reach a saved run's files on disk",
	"nbhd/internal/fleet.Ring.Has":                       "test seam: supervisor tests watch ring membership",
	"nbhd/internal/fleet.Ring.Owner":                     "test seam: ring tests check shard ownership",
	"nbhd/internal/fleet.Supervisor.DrainReplica":        "test seam: supervisor tests drain a replica on demand",
	"nbhd/internal/fleet.Supervisor.KillReplica":         "test seam: supervisor tests kill a replica on demand",
	"nbhd/internal/geoindex.Index.Nearest":               "paper benchmark: BenchmarkNearest in spatial_bench_test.go",
	"nbhd/internal/labelme.Store.CountByLabel":           "test seam: labelme tests tally the annotated objects",
	"nbhd/internal/llmserve.Server.RequestsServed":       "test seam: client tests count the requests a fake server answered",
	"nbhd/internal/nn.Sequential.ParamCount":             "test seam: tests pin layer parameter counts",
	"nbhd/internal/scene.Scene.Has":                      "fixture: tests read a scene's ground truth through it",
	"nbhd/internal/tensor.FromSlice":                     "fixture: builds tensors at 50+ test sites, bit-identity tests included",
	"nbhd/internal/tensor.Tensor.Dim":                    "fixture: tensor and pool tests read shapes through it",
	"nbhd/internal/tensor.Tensor.UniformInit":            "fixture: seeds test tensors at 50+ sites, bit-identity tests included",
	"nbhd/internal/yolo.Load":                            "format reader: reads back the weights file cmd/trainyolo writes",
	"nbhd/internal/yolo.Model.GridSize":                  "test seam: detector tests index the output grid",
	"nbhd/internal/yolo.Model.ParamCount":                "test seam: tests pin the detector's size",
}

// scanRoots are the directories whose non-test files count as callers.
// "." stands for the root package's own files only.
var scanRoots = []string{"cmd", "examples", "internal", "nbhdbench", "."}

// goFile is one parsed non-test source file and the import path of its
// package.
type goFile struct {
	pkg  string
	file *ast.File
}

func parseNonTestFiles(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
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
		files = append(files, goFile{pkg: pkg, file: f})
	}
	isSource := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
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
			if !d.IsDir() && isSource(d.Name()) {
				add(p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(fn *ast.FuncDecl) string {
	expr := fn.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestNoTestOnlyExports finds package-level functions by import path
// (a bare name in the declaring package, pkg.Name elsewhere) and methods
// by name (any .Name selector, since the receiver's type is not
// resolved). A function's references to itself do not count.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTestFiles(t, fset)

	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	funcs := make(map[string]bool)   // "importpath.Func" declared
	methods := make(map[string]bool) // method names declared
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "nbhd/internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := receiverType(fn)
				if !ast.IsExported(recv) {
					continue // unreachable by name from outside the package
				}
				key = f.pkg + "." + recv + "." + fn.Name.Name
				methods[fn.Name.Name] = true
			} else {
				funcs[key] = true
			}
			decls = append(decls, decl{key: key, pos: fset.Position(fn.Pos())})
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; the scan is wrong")
	}

	used := make(map[string]bool)
	for _, f := range files {
		imports := make(map[string]string) // local name -> import path
		for _, spec := range f.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		for _, d := range f.file.Decls {
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if fn.Recv == nil {
					self = f.pkg + "." + self
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							if key := p + "." + x.Sel.Name; key != self {
								used[key] = true
							}
							return false
						}
					}
					if methods[x.Sel.Name] && x.Sel.Name != self {
						used[x.Sel.Name] = true
					}
					// The selected name is a field or method, not a
					// package-level function of this package.
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					if key := f.pkg + "." + x.Name; funcs[key] && key != self {
						used[key] = true
					}
				}
				return true
			}
			if fn, ok := d.(*ast.FuncDecl); ok {
				// The declared name is no reference to itself.
				if fn.Recv != nil {
					ast.Inspect(fn.Recv, visit)
				}
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
				continue
			}
			ast.Inspect(d, visit)
		}
	}

	var unused []string
	listed := make(map[string]bool)
	for _, d := range decls {
		name := d.key
		if i := strings.LastIndexByte(d.key, '.'); i >= 0 {
			name = d.key[i+1:]
		}
		called := used[d.key] || (!funcs[d.key] && used[name])
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
