package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fafnir"
)

// TestBadFlagsAreErrors feeds run the flag values that used to reach a
// panicking constructor: each must come back as an error naming the flag.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-rows 0", "-rows"},
		{"-rows -5", "-rows"},
		{"-batch 0", "-batch"},
		{"-q -1", "-q"},
		{"-mode spmv -matrix banded -size 0", "-size"},
		{"-mode spmv -matrix graph -size 0", "-size"},
		{"-mode spmv -matrix uniform -size 0", "-size"},
		{"-mode spmv -matrix graph -size 1", "-size"},
		{"-mode graph -size 0", "-size"},
		{"-mode graph -size 1", "-size"},
		{"-mode solver -algo cg -size 0", "-size"},
		{"-mode solver -algo jacobi -size -3", "-size"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil {
			t.Errorf("%q: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%q: error %q does not name %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q before rejecting its flags", tc.args, out.String())
		}
	}
}

// TestEveryLookupEngineIsVerified runs each lookup engine once; the
// "verified" line must follow the one golden check after the engine switch.
func TestEveryLookupEngineIsVerified(t *testing.T) {
	for _, engine := range []string{"fafnir", "interactive", "recnmp", "tensordimm", "cpu"} {
		var out bytes.Buffer
		if err := run([]string{"-engine", engine, "-batch", "8", "-rows", "1024"}, &out); err != nil {
			t.Errorf("%s: %v", engine, err)
			continue
		}
		if !strings.Contains(out.String(), "functional result verified against golden reference") {
			t.Errorf("%s: no verification line in:\n%s", engine, out.String())
		}
	}
}

func TestUnknownSelectorsAreErrors(t *testing.T) {
	for _, args := range []string{
		"-mode bogus", "-engine bogus", "-mode spmv -engine bogus", "-mode spmv -matrix bogus",
		"-mode graph -algo bogus", "-mode solver -algo bogus", "-log-format bogus",
		"-mode spmv -trace-out x.json", "-engine cpu -faults rank=3@0",
	} {
		if err := run(strings.Fields(args), &bytes.Buffer{}); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}

// TestSmallModesRun drives the non-lookup modes at their smallest sizes.
func TestSmallModesRun(t *testing.T) {
	for _, args := range []string{
		"-mode spmv -size 64", "-mode spmv -engine twostep -matrix graph -size 64",
		"-mode spmv -matrix uniform -size 1", "-mode graph -algo bfs -size 2",
		"-mode graph -algo cc -size 64", "-mode solver -algo jacobi -size 1", "-mode solver -algo cg -size 32",
	} {
		if err := run(strings.Fields(args), &bytes.Buffer{}); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}

// TestTraceOutValidates: -trace-out writes the run as a Chrome trace that
// fafnir.ValidateTrace accepts.
func TestTraceOutValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run-trace.json")
	var out bytes.Buffer
	if err := run(strings.Fields("-mode lookup -engine fafnir -batch 8 -q 8 -rows 4096 -trace-out "+path), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fafnir.ValidateTrace(data); err != nil || n == 0 {
		t.Errorf("-trace-out wrote %d events: %v", n, err)
	}
}
