// Package lint is zidian's self-contained static-analysis framework: a
// package loader built on the stdlib go/parser + go/types (no x/tools —
// the module stays dependency-free), a small analyzer registry, and the
// domain analyzers that mechanically enforce the codebase's concurrency
// and privacy contracts:
//
//   - tracethread: query-path packages must thread the *obs.Trace /
//     *obs.KV into every kv/index/store call that has a traced variant.
//   - snapshotpin: every MVCC PinSnapshot (and every pin-style helper
//     returning a release func) must release via defer or escape to the
//     caller, so a panicking executor can never stall the reclamation
//     watermark.
//   - lockorder: striped/per-node mutexes never nest outside the
//     documented pairs.
//   - literalleak: slow-log, capture, and statement-statistics sinks only
//     ever see anonymized templates, never raw SQL text.
//   - atomiccopy: structs holding sync or sync/atomic state in
//     internal/kv and internal/obs are never copied by value (stricter
//     than vet's copylocks, which misses our atomics wrappers).
//
// Findings can be waived with a directive on the offending line or the
// line above:
//
//	//lint:ignore zidian/<rule> <reason>
//
// The driver counts waivers and prints them, so suppressions stay visible
// in CI output instead of silently rotting.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Suppression records one finding waived by a //lint:ignore directive.
type Suppression struct {
	Diag   Diagnostic
	Reason string
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset    *token.FileSet
	Path    string // import path
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	ModDir  string // module root, for rendering relative positions
	analyz  *Analyzer
	reports *[]Diagnostic
}

// Reportf records a finding at pos under the pass's rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if rel, ok := strings.CutPrefix(position.Filename, p.ModDir+"/"); ok {
		position.Filename = rel
	}
	*p.reports = append(*p.reports, Diagnostic{
		Pos:     position,
		Rule:    p.analyz.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one registered rule.
type Analyzer struct {
	Name string // rule name as used in directives: zidian/<Name>
	Doc  string // one-line invariant statement
	// Inspects reports whether the analyzer wants the package. Testdata
	// fixture packages (path containing "lint/testdata/") are always
	// offered so the rule corpus exercises every analyzer regardless of
	// its production scoping.
	Inspects func(pkgPath string) bool
	Run      func(*Pass)
}

// Analyzers returns the full registry in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		tracethreadAnalyzer(),
		snapshotpinAnalyzer(),
		lockorderAnalyzer(),
		literalleakAnalyzer(),
		atomiccopyAnalyzer(),
	}
}

// Select filters the registry by a -rules spec: a comma-separated list of
// rule names to run, each optionally prefixed with '-' to skip instead.
// Mixing selects and skips applies skips to the selected set (or to the
// full set when only skips are given). An empty spec selects everything.
func Select(all []*Analyzer, spec string) ([]*Analyzer, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	selected := make(map[string]bool)
	skipped := make(map[string]bool)
	anySelect := false
	for _, tok := range strings.Split(spec, ",") {
		name := strings.TrimSpace(tok)
		if name == "" {
			continue
		}
		skip := strings.HasPrefix(name, "-")
		name = strings.TrimPrefix(name, "-")
		name = strings.TrimPrefix(name, "zidian/")
		if _, ok := byName[name]; !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", name, strings.Join(known, ", "))
		}
		if skip {
			skipped[name] = true
		} else {
			selected[name] = true
			anySelect = true
		}
	}
	var out []*Analyzer
	for _, a := range all {
		if skipped[a.Name] {
			continue
		}
		if anySelect && !selected[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// inTestdata reports whether the package is a lint fixture package.
func inTestdata(pkgPath string) bool {
	return strings.Contains(pkgPath, "lint/testdata/")
}

// pathHasSuffix reports whether the import path is exactly one of the
// given module-relative suffixes (e.g. "internal/kv").
func pathHasSuffix(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// Result is one full driver run: every finding partitioned into live
// diagnostics and waived suppressions.
type Result struct {
	Findings    []Diagnostic
	Suppressed  []Suppression
	Packages    int
	RulesRun    []string
	moduleDir   string
	suppression map[string]map[int]directive // file -> line -> directive
}

type directive struct {
	rule   string
	reason string
	used   bool
}

// Run executes the analyzers over the loaded packages, applies
// //lint:ignore directives, and returns the partitioned result sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{suppression: make(map[string]map[int]directive)}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		res.Packages++
		collectDirectives(pkg, res)
		for _, a := range analyzers {
			if a.Inspects != nil && !a.Inspects(pkg.Path) && !inTestdata(pkg.Path) {
				continue
			}
			pass := &Pass{
				Fset:    pkg.Fset,
				Path:    pkg.Path,
				Files:   pkg.Files,
				Pkg:     pkg.Types,
				Info:    pkg.Info,
				ModDir:  pkg.ModDir,
				analyz:  a,
				reports: &raw,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		res.RulesRun = append(res.RulesRun, a.Name)
	}
	for _, d := range raw {
		if reason, ok := res.suppressedBy(d); ok {
			res.Suppressed = append(res.Suppressed, Suppression{Diag: d, Reason: reason})
			continue
		}
		res.Findings = append(res.Findings, d)
	}
	sortDiags(res.Findings)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		return diagLess(res.Suppressed[i].Diag, res.Suppressed[j].Diag)
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool { return diagLess(ds[i], ds[j]) })
}

func diagLess(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Rule < b.Rule
}

// collectDirectives indexes every //lint:ignore comment in the package by
// file and line.
func collectDirectives(pkg *Package, res *Result) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
				parts := strings.SplitN(rest, " ", 2)
				rule := strings.TrimPrefix(parts[0], "zidian/")
				reason := ""
				if len(parts) == 2 {
					reason = strings.TrimSpace(parts[1])
				}
				pos := pkg.Fset.Position(c.Pos())
				name := pos.Filename
				if rel, ok := strings.CutPrefix(name, pkg.ModDir+"/"); ok {
					name = rel
				}
				if res.suppression[name] == nil {
					res.suppression[name] = make(map[int]directive)
				}
				res.suppression[name][pos.Line] = directive{rule: rule, reason: reason}
			}
		}
	}
}

// suppressedBy reports whether a directive on the diagnostic's line, or on
// the line immediately above it, waives the finding.
func (res *Result) suppressedBy(d Diagnostic) (string, bool) {
	lines := res.suppression[d.Pos.Filename]
	if lines == nil {
		return "", false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir, ok := lines[line]; ok && (dir.rule == d.Rule || dir.rule == "*") {
			return dir.reason, true
		}
	}
	return "", false
}
