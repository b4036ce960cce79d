package lint

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
	"strings"
)

// LoadModule loads and type-checks the module packages matched by
// patterns (default "./...") rooted at dir, using the go toolchain for
// dependency resolution: `go list -export -deps` supplies compiled
// export data for every dependency (standard library included), and
// only the matched packages themselves are parsed from source. This is
// the loader behind `persistlint ./...` and the in-repo self-check test.
//
// Test files are not loaded: the suite's disciplines govern the
// production persistence protocols, and test code deliberately violates
// them (checked-mode violation tests, raw-port crash fixtures).
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	type listPkg struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Export     string
		DepOnly    bool
		Standard   bool
		Error      *struct{ Err string }
	}
	var targets []listPkg
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		ex, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ex)
	})

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadGOPATHDir loads the package at srcRoot/path, resolving its
// imports recursively within srcRoot (GOPATH-style, as the golden-test
// fixtures under testdata/src are laid out). Fixture packages may only
// import other fixture packages — no standard library — which keeps
// golden tests hermetic and fast.
func LoadGOPATHDir(srcRoot, path string) (*Package, error) {
	l := &gopathLoader{
		fset:    token.NewFileSet(),
		srcRoot: srcRoot,
		pkgs:    make(map[string]*Package),
	}
	return l.load(path)
}

type gopathLoader struct {
	fset    *token.FileSet
	srcRoot string
	pkgs    map[string]*Package
	loading []string
}

func (l *gopathLoader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	for _, busy := range l.loading {
		if busy == path {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
	}
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, err := check(l.fset, path, files, importerFunc(func(ipath string) (*types.Package, error) {
		p, err := l.load(ipath)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}))
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks files as package path with full type information.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
