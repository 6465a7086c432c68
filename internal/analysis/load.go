package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -json -deps patterns...` in dir and
// decodes the stream of package objects. -export materializes gc
// export data in the build cache for every listed package, which is
// what lets the loader type-check without golang.org/x/tools: each
// import resolves through the stdlib gc importer reading those files.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// ExportMap returns importPath → gc export-data file for every package
// reachable from patterns (targets and transitive deps, std included).
// analysistest uses it to type-check fixtures that import repository
// packages.
//
// The export data comes from a `go list` subprocess, so the test cache
// would never learn which sources a fixture suite depends on and could
// replay a pass after an edit breaks the fixtures. Stat-ing every Go
// file of each non-standard package records those sources in the test
// log: editing any of them invalidates the cached result.
func ExportMap(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, lp := range pkgs {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard {
			continue
		}
		for _, name := range lp.GoFiles {
			if _, err := os.Stat(filepath.Join(lp.Dir, name)); err != nil {
				return nil, err
			}
		}
	}
	return exports, nil
}

// NewImporter returns a types.Importer resolving import paths through
// the given export-data file map, with an optional source-path →
// canonical-path translation (the vet protocol's ImportMap).
func NewImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := importMap[path]; ok {
			path = canon
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// NewInfo returns a fully-populated types.Info for one package check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// CheckFiles parses and type-checks one package's files against the
// importer. Parse or hard type errors fail the load: the suite runs on
// code that already builds, so partial type information would only
// produce unreliable findings.
func CheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer, goVersion string) (*LoadedPackage, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", fn, err)
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	info := NewInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &LoadedPackage{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// InTestdata reports whether a package path or directory contains a
// "testdata" element. Such directories hold analyzer fixtures — code
// that deliberately violates the suite's invariants — and cmd/go only
// skips them for wildcard patterns ("./..."); an explicit pattern, a
// stray symlink, or a future cmd/go behavior change would feed them to
// the loader and fail `make lint` on intentional violations. Load
// filters them out unconditionally.
func InTestdata(path string) bool {
	for _, elem := range strings.FieldsFunc(path, func(r rune) bool {
		return r == '/' || r == os.PathSeparator
	}) {
		if elem == "testdata" {
			return true
		}
	}
	return false
}

// Load lists, parses, and type-checks the packages matched by patterns
// (relative to dir), returning them in deterministic import-path
// order. Only non-test GoFiles are loaded: the suite's invariants
// apply to production code. Packages under a testdata directory are
// skipped explicitly (see InTestdata).
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		if InTestdata(lp.ImportPath) || InTestdata(lp.Dir) {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		targets = append(targets, lp)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := NewImporter(fset, exports, nil)
	out := make([]*LoadedPackage, 0, len(targets))
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			filenames[i] = filepath.Join(lp.Dir, f)
		}
		goVersion := ""
		if lp.Module != nil && lp.Module.GoVersion != "" {
			goVersion = "go" + lp.Module.GoVersion
		}
		cp, err := CheckFiles(fset, lp.ImportPath, filenames, imp, goVersion)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}
