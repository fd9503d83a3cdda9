package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fafnir"
)

func TestParseSLO(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[fafnir.Priority]time.Duration
		err  string // substring of the error; "" means accepted
	}{
		{"", nil, ""},
		{"high=50ms, low=1s", map[fafnir.Priority]time.Duration{fafnir.PriorityHigh: 50 * time.Millisecond, fafnir.PriorityLow: time.Second}, ""},
		{"high=50ms,high=1s", nil, `"high=1s" repeats lane high`},
		{"normal=1s,=2s", nil, `"=2s" repeats lane normal`},
		{"high=0s", nil, "must be positive"},
		{"high=fast", nil, "bad -slo duration"},
		{"urgent=1s", nil, "bad -slo lane"},
		{"high", nil, "bad -slo clause"},
	} {
		got, err := parseSLO(tc.in)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseSLO(%q) = %v, want %v", tc.in, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseSLO(%q) error = %v, want one mentioning %q", tc.in, err, tc.err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("parseSLO(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseSLO: the -slo grammar never panics, and whatever it accepts is a
// set of positive per-lane objectives that survives being written back out
// and parsed again.
func FuzzParseSLO(f *testing.F) {
	for _, s := range []string{"", "high=50ms,normal=250ms,low=1s", "high=50ms,high=1s", "low=1h", "=1s", " high = 5ms ", "high=0", "high=-1s", "high=1", "low=1s,,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseSLO(s)
		if err != nil {
			return
		}
		var clauses []string
		for pri, d := range m {
			if d <= 0 {
				t.Fatalf("parseSLO(%q) accepted %v=%v", s, pri, d)
			}
			clauses = append(clauses, fmt.Sprintf("%v=%v", pri, d))
		}
		sort.Strings(clauses)
		full := strings.Join(clauses, ",")
		if again, err := parseSLO(full); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("parseSLO(%q) = %v, but its rendering %q parses to %v, %v", s, m, full, again, err)
		}
	})
}
