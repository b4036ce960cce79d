// Package lint is persistlint: a suite of static analyzers enforcing
// the persistence disciplines this repository keeps re-discovering at
// crash-stress time. Every durability bug shipped so far violated a
// rule that was already statable — raw Port.CAS on an rcas-managed word
// destroys un-announced recoverable-CAS evidence (the PR 2 / PR 8
// CasAnon class), announce writes must be dominated by a fence (the
// PR 3 logqueue class), read-only-tier capsules must be free of
// persistent effects (the PR 5 checked-mode panic), packed-arena nodes
// must be accessed through the arena accessors (the line-sharing
// discipline of DESIGN.md "Packed batch arenas"), and adjacent flushes
// should batch through FlushRange/FlushAddrs. These are mechanically
// checkable program disciplines, so this package checks them at vet
// time instead of waiting for a lethal crash seed.
//
// The framework mirrors the golang.org/x/tools/go/analysis surface
// (Analyzer, Pass, Reportf, analysistest-style golden tests) but is
// built entirely on the standard library's go/ast and go/types, because
// the build environment vendors no third-party modules. Analyzers run
// over a module's packages loaded through `go list -export` (see
// LoadModule), by cmd/persistlint and the in-repo self-check test.
//
// # Directive vocabulary
//
// Disciplines are declared with //persist: directive comments (exact
// spelling, no space after //, so gofmt treats them as directives):
//
//   - //persist:rcas-managed — on a func/method, struct field or var
//     whose value is (or produces) the address of a recoverable-CAS
//     managed word. rawcas flags raw pmem.Port.CAS/Write on addresses
//     flowing from these declarations outside internal/rcas.
//   - //persist:announce — on a statement that durably publishes
//     earlier writes, or on a function declaration whose every call is
//     such a publish. fenceorder requires a dominating Fence /
//     FlushFence / PersistEpoch on the same path in the function.
//   - //persist:fence — on an intra-package wrapper that issues a
//     fence; fenceorder accepts it as a dominator.
//   - //persist:ro-fallback — on a statement marking the documented
//     demotion path inside a read-only-reachable function, where
//     persistent effects are permitted (e.g. pmap.find's claim CAS).
//   - //persist:packed-extent — on a declaration exposing a raw
//     packed-pool extent address; packedaccess taints its results.
//
// Findings are suppressed with
//
//	//lint:ignore <analyzer[,analyzer]> <written justification>
//
// on the line above (or trailing the) flagged statement. The
// justification is mandatory: an ignore without one is itself reported
// (analyzer name "lint-directive") and cannot be suppressed, so the
// tree can carry no unjustified ignores.
//
// Directives are package-local: the suite propagates no cross-package
// facts (each package is analyzed on its own), so
// cross-package disciplines — which pmem.Port methods persist, which
// rcas/wcas/qnode calls are effectful — are encoded in the analyzers'
// builtin tables instead of annotations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects the Pass's package and
// reports findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, carried with its resolved position so
// callers can print or compare it without the FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package — the unit of analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's view of one package, plus the shared
// directive index.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	declDirs map[types.Object][]string
	nodeDirs map[ast.Node][]string
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DeclDirective reports whether obj's declaration carries the given
// //persist: directive. Only same-package declarations are visible.
func (p *Pass) DeclDirective(obj types.Object, dir string) bool {
	return hasDir(p.declDirs[obj], dir)
}

// NodeDirective reports whether a directive comment is attached to node
// (leading comment group or trailing same-line comment).
func (p *Pass) NodeDirective(n ast.Node, dir string) bool {
	return hasDir(p.nodeDirs[n], dir)
}

func hasDir(dirs []string, want string) bool {
	for _, d := range dirs {
		if d == want {
			return true
		}
	}
	return false
}

// ignoreSpec is one parsed //lint:ignore comment.
type ignoreSpec struct {
	pos       token.Position
	analyzers []string // empty means malformed
	justified bool
}

func (s *ignoreSpec) matches(analyzer string) bool {
	if !s.justified {
		return false
	}
	for _, a := range s.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// directiveRe matches the directive comments this package defines.
var directiveRe = regexp.MustCompile(`^//(persist:[a-z-]+)\s*$`)

// RunAnalyzers runs every analyzer over pkg, applies //lint:ignore
// suppression, validates ignore hygiene, and returns the surviving
// diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	declDirs, nodeDirs, ignores := indexDirectives(pkg)

	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			declDirs:  declDirs,
			nodeDirs:  nodeDirs,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var out []Diagnostic
	for _, d := range raw {
		if suppressed(d, ignores) {
			continue
		}
		out = append(out, d)
	}
	// Ignore hygiene: a justification is mandatory, and the analyzer
	// list must name real analyzers. These findings cannot themselves
	// be ignored.
	for _, ig := range ignores {
		if !ig.justified {
			out = append(out, Diagnostic{
				Pos:      ig.pos,
				Analyzer: "lint-directive",
				Message:  "//lint:ignore needs an analyzer list and a written justification: //lint:ignore <analyzer[,analyzer]> <why this is sound>",
			})
			continue
		}
		for _, a := range ig.analyzers {
			if !known[a] {
				out = append(out, Diagnostic{
					Pos:      ig.pos,
					Analyzer: "lint-directive",
					Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", a),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// suppressed reports whether d is covered by an ignore on its own line
// or the line immediately above it in the same file.
func suppressed(d Diagnostic, ignores []ignoreSpec) bool {
	for i := range ignores {
		ig := &ignores[i]
		if ig.pos.Filename != d.Pos.Filename {
			continue
		}
		if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
			if ig.matches(d.Analyzer) {
				return true
			}
		}
	}
	return false
}

// indexDirectives builds the shared directive index for pkg: directives
// on declarations (by object), directives on arbitrary nodes (by
// CommentMap association), and every //lint:ignore in the package.
func indexDirectives(pkg *Package) (map[types.Object][]string, map[ast.Node][]string, []ignoreSpec) {
	declDirs := make(map[types.Object][]string)
	nodeDirs := make(map[ast.Node][]string)
	var ignores []ignoreSpec

	addDecl := func(obj types.Object, groups ...*ast.CommentGroup) {
		if obj == nil {
			return
		}
		for _, g := range groups {
			for _, d := range groupDirectives(g) {
				declDirs[obj] = append(declDirs[obj], d)
			}
		}
	}

	for _, f := range pkg.Files {
		// Declaration-attached directives, resolved to their objects.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				addDecl(pkg.Info.Defs[n.Name], n.Doc)
			case *ast.Field:
				for _, name := range n.Names {
					addDecl(pkg.Info.Defs[name], n.Doc, n.Comment)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					addDecl(pkg.Info.Defs[name], n.Doc, n.Comment)
				}
			case *ast.GenDecl:
				// A directive on a single-spec var/const block applies
				// to the spec's names.
				if len(n.Specs) == 1 {
					if vs, ok := n.Specs[0].(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							addDecl(pkg.Info.Defs[name], n.Doc)
						}
					}
				}
			}
			return true
		})

		// Statement-attached directives, by lexical association.
		cmap := ast.NewCommentMap(pkg.Fset, f, f.Comments)
		for node, groups := range cmap {
			for _, g := range groups {
				for _, d := range groupDirectives(g) {
					nodeDirs[node] = append(nodeDirs[node], d)
				}
			}
		}

		// Ignores, from every comment in the file.
		for _, g := range f.Comments {
			for _, c := range g.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				spec := ignoreSpec{pos: pkg.Fset.Position(c.Pos())}
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					spec.analyzers = strings.Split(fields[0], ",")
					spec.justified = len(fields) >= 2
				}
				ignores = append(ignores, spec)
			}
		}
	}
	return declDirs, nodeDirs, ignores
}

func groupDirectives(g *ast.CommentGroup) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
			out = append(out, m[1])
		}
	}
	return out
}
