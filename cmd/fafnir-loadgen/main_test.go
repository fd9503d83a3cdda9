package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want priorityMix
		err  string // substring of the error; "" means accepted
	}{
		{"", priorityMix{}, ""},
		{"high=20,low=80", priorityMix{high: 20, low: 80}, ""},
		{"high=20, normal=70, low=10", priorityMix{high: 20, low: 10}, ""},
		{"normal=100", priorityMix{}, ""},
		{"high=20,normal=90", priorityMix{}, `"normal=90" disagrees`},
		{"normal=90,high=20", priorityMix{}, `"normal=90" disagrees`},
		{"high=10,high=30", priorityMix{}, `"high=30" repeats lane high`},
		{"low=5,normal=95,low=5", priorityMix{}, `"low=5" repeats lane low`},
		{"high=60,low=60", priorityMix{}, "sum past 100"},
		{"urgent=5", priorityMix{}, "unknown -mix lane"},
		{"high=101", priorityMix{}, "bad -mix percent"},
		{"high", priorityMix{}, "bad -mix clause"},
	} {
		got, err := parseMix(tc.in)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseMix(%q) = %v, want %+v", tc.in, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseMix(%q) error = %v, want one mentioning %q", tc.in, err, tc.err)
		case got != tc.want:
			t.Errorf("parseMix(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseMix: the -mix grammar never panics, and whatever it accepts is a
// mix whose lanes fit in 100% and which survives being written back out in
// full (all three lanes) and parsed again.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"", "high=20,low=80", "high=20,normal=90", "high=10,high=30", "normal=100", "low=0", " high=1 ,low=2", "high==,", "high=-1", "high=1e2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseMix(s)
		if err != nil {
			return
		}
		if m.high < 0 || m.low < 0 || m.high+m.low > 100 {
			t.Fatalf("parseMix(%q) accepted %+v", s, m)
		}
		full := fmt.Sprintf("high=%d,normal=%d,low=%d", m.high, 100-m.high-m.low, m.low)
		if again, err := parseMix(full); err != nil || again != m {
			t.Fatalf("parseMix(%q) = %+v, but its rendering %q parses to %+v, %v", s, m, full, again, err)
		}
	})
}
