// Package archtest holds the design rules of the module as one table of
// AST and type-aware rows (rules_test.go). Each row keeps a decision an
// earlier PR made, such as the PE reducing header bitsets (section III of
// the paper) or memory cycles crossing into the PE clock only through
// internal/dram, names the PR and the reason, and carries a seed that must
// trip it. The package has test files only: go test runs the rules over
// the module two directories up, benchmark/ included.
package archtest

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"
)

// hit is one place a row fires.
type hit struct {
	row      *rule
	at, what string
}

func (h hit) String() string {
	return fmt.Sprintf("row %s (gate %s, PR %d) fires at %s: %s; %s", h.row.id, h.row.gate, h.row.pr, h.at, h.what, h.row.reason)
}

// run applies every row to the tree.
func (t *tree) run(rows []rule) []hit {
	var hits []hit
	for i := range rows {
		r := &rows[i]
		switch {
		case r.match.path != "":
			if t.exists(r.match.path) {
				hits = append(hits, hit{r, r.match.path, "exists"})
			}
		case r.match.text != nil:
			for _, s := range t.scripts {
				for n, line := range s.lines {
					if !strings.HasPrefix(strings.TrimSpace(line), "#") && r.match.text.MatchString(line) {
						hits = append(hits, hit{r, fmt.Sprintf("%s:%d", s.rel, n+1), strings.TrimSpace(line)})
					}
				}
			}
		}
	}
	for _, f := range t.files {
		var live []*rule
		for i := range rows {
			if rows[i].match.node != nil && rows[i].scope.covers(f) {
				live = append(live, &rows[i])
			}
		}
		for _, d := range f.syntax.Decls {
			c := &cursor{f: f, fn: funcName(d)}
			ast.Inspect(d, func(n ast.Node) bool {
				for _, r := range live {
					if n == nil || r.scope.fn != "" && r.scope.fn != c.fn {
						continue
					}
					if what := r.match.node(c, n); what != "" {
						p := t.fset.Position(n.Pos())
						hits = append(hits, hit{r, fmt.Sprintf("%s:%d", p.Filename, p.Line), what})
					}
				}
				return n != nil
			})
		}
	}
	return hits
}

// seedTree is a tree holding one row's seed alone: a Go file type-checked
// against the module's packages, a script, or a path that exists.
func seedTree(m *tree, imp types.Importer, s seed) (*tree, error) {
	t := &tree{fset: m.fset, exists: func(rel string) bool { return rel == s.path || strings.HasPrefix(s.path, rel+"/") }}
	switch {
	case strings.HasSuffix(s.path, ".go"):
		f, err := t.parse(s.path, []byte(s.src))
		if err != nil {
			return nil, err
		}
		if !f.test {
			checkFiles("seed/"+f.dir, []*file{f}, t.fset, imp, &t.typeErrs)
		}
	case strings.HasPrefix(s.path, "scripts/"):
		t.addScript(s.path, []byte(s.src))
	}
	return t, nil
}

// TestTreeTripsNoRow runs the table over the module: no row may fire, and
// every compiled package must type-check, or a type-aware row could pass
// over code it cannot read.
func TestTreeTripsNoRow(t *testing.T) {
	tr, _, err := module()
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range tr.typeErrs {
		if i == 10 {
			t.Fatalf("... and %d more type errors", len(tr.typeErrs)-i)
		}
		t.Errorf("type-check: %v", err)
	}
	benchmark := false
	for _, f := range tr.files {
		benchmark = benchmark || f.dir == "benchmark" && f.info != nil
	}
	if !benchmark {
		t.Error("the rows read no type-checked file of benchmark/")
	}
	hits := tr.run(rules)
	sort.Slice(hits, func(i, j int) bool { return hits[i].String() < hits[j].String() })
	for _, h := range hits {
		t.Error(h)
	}
}

// TestSeedsTripTheirRowOnly: each row's seed, alone in a tree, trips that
// row and no other. A typed row's seed must type-check.
func TestSeedsTripTheirRowOnly(t *testing.T) {
	m, imp, err := module()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		r := &rules[i]
		st, err := seedTree(m, imp, r.seed)
		if err != nil {
			t.Errorf("row %s: seed: %v", r.id, err)
			continue
		}
		if r.match.typed && len(st.typeErrs) > 0 {
			t.Errorf("row %s: seed does not type-check: %v", r.id, st.typeErrs[0])
		}
		own := 0
		for _, h := range st.run(rules) {
			if h.row == r {
				own++
			} else {
				t.Errorf("row %s: seed trips another row: %v", r.id, h)
			}
		}
		if own == 0 {
			t.Errorf("row %s: seed %s trips nothing", r.id, r.seed.path)
		}
	}
}

// TestRowsNameReasonAndPR: every row is named uniquely, says why, names the
// PR and the gate it came from, and reads somewhere.
func TestRowsNameReasonAndPR(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range rules {
		switch {
		case r.id == "" || seen[r.id]:
			t.Errorf("row %q: missing or repeated name", r.id)
		case r.reason == "" || r.pr <= 0 || r.gate == "":
			t.Errorf("row %s: reason %q, PR %d, gate %q: each must be set", r.id, r.reason, r.pr, r.gate)
		case r.match.node != nil && len(r.scope.dirs) == 0:
			t.Errorf("row %s: a Go row with no scope reads nothing", r.id)
		case r.seed.path == "" || path.IsAbs(r.seed.path):
			t.Errorf("row %s: seed path %q", r.id, r.seed.path)
		}
		seen[r.id] = true
	}
}
