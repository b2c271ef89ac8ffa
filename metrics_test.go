package smash_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// metricName matches a whole metric family name.
var metricName = regexp.MustCompile(`^smash_[a-z0-9_]+$`)

// registeredFamilies returns every "smash_…" string literal in the
// non-test Go files under cmd/ and internal/, with the files naming it.
func registeredFamilies(t *testing.T) map[string][]string {
	t.Helper()
	fams := make(map[string][]string)
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && metricName.MatchString(s) {
					fams[s] = append(fams[s], path)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return fams
}

// familyRow matches a row of DESIGN.md's metric family table:
// | `name{labels}` | kind | read by |
var familyRow = regexp.MustCompile("^\\| `(smash_[a-z0-9_]+)(?:\\{[^}]*\\})?` \\|([^|]*)\\|([^|]*)\\|$")

// documentedFamilies returns DESIGN.md's family table: name → reader.
func documentedFamilies(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		m := familyRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("DESIGN.md lists %s twice", m[1])
		}
		rows[m[1]] = strings.TrimSpace(m[3])
	}
	return rows
}

// Every metric family a process can register has a reader named in
// DESIGN.md's family table — a CI step, a README walkthrough, a DESIGN
// procedure, or "only surface" for a signal no JSON field carries — and
// every row names a family the code registers.
func TestMetricFamiliesHaveReaders(t *testing.T) {
	registered := registeredFamilies(t)
	documented := documentedFamilies(t)
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("found %d registered and %d documented families; the scan is broken", len(registered), len(documented))
	}
	var names []string
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reader, ok := documented[name]
		switch {
		case !ok:
			t.Errorf("%s (registered in %s) has no row in DESIGN.md's metric family table", name, strings.Join(registered[name], ", "))
		case reader == "":
			t.Errorf("%s has a DESIGN.md row with no reader", name)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("DESIGN.md's metric family table lists %s, which nothing registers", name)
		}
	}
}
