package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapOrderPackages are the directories whose code runs inside a
// simulation. Go randomizes map iteration on every range, so a range
// over a map there can make one scenario render different reports
// from run to run — the defect that once armed the detectors in map
// order.
var mapOrderPackages = []string{
	"internal/engine",
	"internal/detect",
	"internal/core",
	"internal/aperiodic",
	"internal/fault",
	"sim",
}

// orderIndependent is the marker a range over a map must carry on its
// `for` line, followed by the reason the loop's effect does not depend
// on iteration order (a sum, a map fill, a sorted result).
const orderIndependent = "// order-independent:"

// TestNoMapOrderDependence type-checks the non-test files of
// mapOrderPackages with the standard library's own toolchain (go/parser,
// go/types and the source importer) and fails on every range over a
// map whose `for` line lacks an orderIndependent comment with a
// reason. A loop whose result does depend on the order gets fixed
// (range over a slice or sorted keys), not a comment.
func TestNoMapOrderDependence(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var flagged []string
	for _, dir := range mapOrderPackages {
		files, err := parseNonTest(fset, dir)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("repro/"+dir, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			flagged = append(flagged, unmarkedMapRanges(fset, f, info)...)
		}
	}
	for _, site := range flagged {
		t.Errorf("%s: range over a map without %q", site, orderIndependent+" <reason>")
	}
}

// parseNonTest parses the package's .go files, skipping tests.
func parseNonTest(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// unmarkedMapRanges returns the file:line of every range over a map in
// f whose `for` line carries no orderIndependent comment with a
// reason.
func unmarkedMapRanges(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	marked := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			reason, ok := strings.CutPrefix(c.Text, orderIndependent)
			if ok && strings.TrimSpace(reason) != "" {
				marked[fset.Position(c.Slash).Line] = true
			}
		}
	}
	var sites []string
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
			if pos := fset.Position(rs.For); !marked[pos.Line] {
				sites = append(sites, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
			}
		}
		return true
	})
	return sites
}
