// Package linttest runs internal/lint analyzers over fixture packages and
// checks the reported diagnostics against expectations written in the
// fixtures themselves, in the style of golang.org/x/tools' analysistest:
//
//	for k := range m { // want "iterates over map"
//
// A `// want "s1" "s2"` comment expects exactly those diagnostics on its
// line, each matched by substring; every line without a want comment
// expects none. Fixtures live under internal/lint/testdata/<analyzer>/ and
// are loaded as a single package under a caller-chosen import path, so
// package-scoped analyzers (determinism, costarith) can be pointed at the
// scope they police without the fixture living there.
package linttest

import (
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/lint"
)

// expectation is one `want` substring not yet matched by a diagnostic.
type expectation struct {
	file string // base name
	line int
	want string
}

var wantRe = regexp.MustCompile(`(?://|/\*)\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var quoteRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run loads dir as one package under import path asPath, runs the
// analyzers over it, and fails the test on any mismatch between reported
// diagnostics and the fixture's want comments — in either direction. It
// is the harness of internal/lint's fixture tests (lint_test.go).
func Run(t *testing.T, dir, asPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	loader := lint.NewLoader()
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	expects := collectWants(t, pkg)
	diags, err := lint.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		file, line := filepath.Base(pos.Filename), pos.Line
		if i := matchWant(expects, file, line, d.Message); i >= 0 {
			expects = append(expects[:i], expects[i+1:]...)
			continue
		}
		t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", file, line, d.Analyzer, d.Message)
	}
	for _, e := range expects {
		t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.want)
	}
}

// collectWants extracts every want expectation from the package's
// comments. The expectation anchors to the line the comment starts on,
// which for a trailing comment is the flagged line itself.
func collectWants(t *testing.T, pkg *lint.Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quoteRe.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					out = append(out, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						want: s,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// matchWant returns the index of an expectation on (file, line) whose
// substring occurs in msg, or -1.
func matchWant(expects []expectation, file string, line int, msg string) int {
	for i, e := range expects {
		if e.file == file && e.line == line && strings.Contains(msg, e.want) {
			return i
		}
	}
	return -1
}
