package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// Text mode must render byte-identically to the fmt.Printf lines it replaced:
// check.sh parses the serve handshake ("listening on host:port") with awk.
func TestLoggerTextMatchesPrintf(t *testing.T) {
	var sb strings.Builder
	l, err := NewLogger(&sb, "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Infof("listening on %s:%d", "127.0.0.1", 8080)
	l.Errorf("drain: %v", fmt.Errorf("timeout"))
	want := "listening on 127.0.0.1:8080\ndrain: timeout\n"
	if sb.String() != want {
		t.Fatalf("text log = %q, want %q", sb.String(), want)
	}
}

func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l, err := NewLogger(&sb, "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Infof("sent %d", 42)
	l.Errorf("boom")
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	wantLevels := []string{"info", "error"}
	wantMsgs := []string{"sent 42", "boom"}
	for i, line := range lines {
		var rec struct{ TS, Level, Msg string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec.Level != wantLevels[i] || rec.Msg != wantMsgs[i] || rec.TS == "" {
			t.Fatalf("line %d = %+v, want level %q msg %q", i, rec, wantLevels[i], wantMsgs[i])
		}
	}
}

func TestLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&strings.Builder{}, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	// Empty format defaults to text.
	if _, err := NewLogger(&strings.Builder{}, ""); err != nil {
		t.Fatal(err)
	}
}
