package archtest

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"sync"
)

// tree is source as the rules read it: every Go file parsed (test files
// and other architectures' kernels too, with no comments), the packages go
// build would compile for this host type-checked, and the text of scripts/.
type tree struct {
	fset     *token.FileSet
	files    []*file
	scripts  []script
	exists   func(rel string) bool
	typeErrs []error
}

// file is one parsed Go file.
type file struct {
	rel, dir string // slash paths from the tree's root; dir is "." at the root
	test     bool
	syntax   *ast.File
	imports  map[string]string // local name -> import path
	info     *types.Info       // nil unless the file is compiled non-test code
}

// script is one file under scripts/, line by line.
type script struct {
	rel   string
	lines []string
}

var (
	moduleOnce sync.Once
	moduleTree *tree
	moduleChk  *checker
	moduleErr  error
)

// module loads the tree of the module this package sits in, two levels up,
// once per test binary: the rows and the seeds share its type-checker.
func module() (*tree, *checker, error) {
	moduleOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err == nil {
			moduleTree, moduleChk, err = loadTree(root)
		}
		moduleErr = err
	})
	return moduleTree, moduleChk, moduleErr
}

// loadTree parses every Go file under root (skipping testdata, dot and
// underscore directories, as the go tool does), reads scripts/, and
// type-checks the compiled non-test packages, nested modules included.
func loadTree(root string) (*tree, *checker, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	t := &tree{fset: token.NewFileSet(), exists: func(rel string) bool {
		_, err := os.Stat(filepath.Join(root, filepath.FromSlash(rel)))
		return err == nil
	}}
	c := newChecker(t, root, mod)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		isGo := strings.HasSuffix(name, ".go")
		if !isGo && !strings.HasPrefix(rel, "scripts/") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if !isGo {
			t.addScript(rel, src)
			return nil
		}
		f, err := t.parse(rel, src)
		if err != nil {
			return err
		}
		if compiled, err := build.Default.MatchFile(filepath.Dir(p), name); err == nil && compiled && !f.test {
			c.add(f)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c.checkAll()
	return t, c, nil
}

// modulePath reads the module line of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("no module at %s: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

// parse adds one Go file to the tree.
func (t *tree) parse(rel string, src []byte) (*file, error) {
	syntax, err := parser.ParseFile(t.fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &file{rel: rel, dir: path.Dir(rel), test: strings.HasSuffix(rel, "_test.go"), syntax: syntax,
		imports: map[string]string{}}
	for _, imp := range syntax.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imports[name] = p
	}
	t.files = append(t.files, f)
	return f, nil
}

// addScript adds one file of scripts/.
func (t *tree) addScript(rel string, src []byte) {
	s := script{rel: rel}
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		s.lines = append(s.lines, sc.Text())
	}
	t.scripts = append(t.scripts, s)
}

// checker type-checks a tree's packages from source, each once, in import
// order: importing a package of the module checks it first. Everything
// else comes from the compiler's export data, located by one go list.
type checker struct {
	t       *tree
	root    string
	mod     string
	pkgs    map[string][]*file // import path -> compiled non-test files
	done    map[string]*types.Package
	std     types.Importer
	exports map[string]string // import path -> export data file
}

func newChecker(t *tree, root, mod string) *checker {
	c := &checker{t: t, root: root, mod: mod, pkgs: map[string][]*file{},
		done: map[string]*types.Package{}, exports: map[string]string{}}
	c.std = importer.ForCompiler(t.fset, "gc", c.lookup)
	return c
}

// importPath names the package in a directory of the tree.
func (c *checker) importPath(dir string) string {
	if dir == "." {
		return c.mod
	}
	return c.mod + "/" + dir
}

func (c *checker) add(f *file) {
	p := c.importPath(f.dir)
	c.pkgs[p] = append(c.pkgs[p], f)
}

// checkAll checks every package, after locating the export data of all
// the packages outside the tree they import in one go list.
func (c *checker) checkAll() {
	var outside []string
	seen := map[string]bool{}
	for _, files := range c.pkgs {
		for _, f := range files {
			for _, p := range f.imports {
				if _, in := c.pkgs[p]; !in && !seen[p] && p != "unsafe" && p != "C" {
					seen[p] = true
					outside = append(outside, p)
				}
			}
		}
	}
	c.list(outside...)
	for p, files := range c.pkgs {
		c.check(p, files)
	}
}

// list records where the export data of paths lives, compiling what the
// build cache lacks.
func (c *checker) list(paths ...string) {
	if len(paths) == 0 {
		return
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	cmd.Dir = c.root
	out, err := cmd.Output()
	if err != nil {
		c.t.typeErrs = append(c.t.typeErrs, fmt.Errorf("go list -export: %v", err))
	}
	for _, line := range strings.Split(string(out), "\n") {
		if p, export, ok := strings.Cut(line, "\t"); ok && export != "" {
			c.exports[p] = export
		}
	}
}

func (c *checker) lookup(p string) (io.ReadCloser, error) {
	if _, ok := c.exports[p]; !ok {
		c.list(p)
	}
	export, ok := c.exports[p]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", p)
	}
	return os.Open(export)
}

// Import resolves the tree's own packages from source and the rest from
// export data.
func (c *checker) Import(p string) (*types.Package, error) {
	if files, ok := c.pkgs[p]; ok {
		return c.check(p, files), nil
	}
	return c.std.Import(p)
}

// check type-checks one of the tree's packages, once.
func (c *checker) check(p string, files []*file) *types.Package {
	if pkg, ok := c.done[p]; ok {
		return pkg
	}
	pkg := checkFiles(p, files, c.t.fset, c, &c.t.typeErrs)
	c.done[p] = pkg
	return pkg
}

// checkFiles type-checks files as the package p, appending its errors to
// errs and recording its types on each file.
func checkFiles(p string, files []*file, fset *token.FileSet, imp types.Importer, errs *[]error) *types.Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	syntax := make([]*ast.File, len(files))
	for i, f := range files {
		syntax[i] = f.syntax
		f.info = info
	}
	conf := types.Config{Importer: imp, Error: func(err error) { *errs = append(*errs, err) }}
	pkg, _ := conf.Check(p, fset, syntax, info)
	return pkg
}
