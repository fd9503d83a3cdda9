package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fafnir"
)

// stdout runs fn with os.Stdout sent to a file and returns what it printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

var attributed = regexp.MustCompile(`(?m)^attributed: .* \(([0-9.]+)% of the window\)$`)

// TestTracedLookupValidatesAndAttributes traces one lookup of 8 queries of
// 8 indices over 4096-row tables at hardware batch 8 through the public
// API, then runs validate and report over the Chrome trace it writes: the
// trace must be valid, and the report must attribute at least 95 % of the
// simulated window to named pipeline stages (unattributed time means a
// stage lost its spans).
func TestTracedLookupValidatesAndAttributes(t *testing.T) {
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{RowsPerTable: 4096, BatchCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var queries []fafnir.Query
	for range 8 {
		idx := make([]uint32, 8)
		for i, v := range rng.Perm(int(sys.TotalRows()))[:8] {
			idx[i] = uint32(v)
		}
		queries = append(queries, fafnir.NewQuery(idx...))
	}
	tr := fafnir.NewTrace()
	sys.AttachTracer(tr)
	if _, err := sys.Lookup(fafnir.NewBatch(fafnir.OpSum, queries...)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run-trace.json")
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	t.Log(strings.TrimSpace(stdout(t, func() error { return cmdValidate([]string{path}) })))
	report := stdout(t, func() error { return cmdReport([]string{path}) })
	m := attributed.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report has no attributed line:\n%s", report)
	}
	t.Log(m[0])
	if pct, _ := strconv.ParseFloat(m[1], 64); pct < 95 {
		t.Errorf("report attributes %v%% of the traced window, want at least 95%%:\n%s", pct, report)
	}
}

// TestBadTracesAreErrors: validate and report reject a file that is not a
// Chrome trace, and report one with no spans to attribute.
func TestBadTracesAreErrors(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"garbage.json": "{", "empty.json": `{"traceEvents":[]}`} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdReport([]string{path}); err == nil {
			t.Errorf("report accepted %s", body)
		}
	}
	if err := cmdValidate([]string{filepath.Join(dir, "garbage.json")}); err == nil {
		t.Error("validate accepted a truncated file")
	}
}
