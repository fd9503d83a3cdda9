package dram

import (
	"testing"

	"fafnir/internal/sim"
)

// TestAccessLog checks the observational contract of AttachLog: every
// top-level Read appends exactly one record with the caller's view of the
// request, writes are not recorded, logging never changes timing, and
// Reset/detach behave as documented.
func TestAccessLog(t *testing.T) {
	cfg := DDR4()

	// Reference run without a log.
	ref := MustSystem(cfg)
	var want []sim.MemCycle
	addrs := []Addr{0, 512, 1024, 0, 8192 * 32}
	for _, a := range addrs {
		want = append(want, ref.Read(0, a, 512, DestLocal))
	}

	logged := MustSystem(cfg)
	log := &AccessLog{}
	logged.AttachLog(log)
	if logged.Log() != log {
		t.Fatal("Log() does not return the attached log")
	}
	for i, a := range addrs {
		done := logged.Read(0, a, 512, DestLocal)
		if done != want[i] {
			t.Fatalf("read %d: logged run returned cycle %d, bare run %d", i, done, want[i])
		}
	}
	if log.Len() != len(addrs) {
		t.Fatalf("log has %d records, want %d", log.Len(), len(addrs))
	}
	for i, rec := range log.Records() {
		if rec.Addr != addrs[i] || rec.Size != 512 || rec.Dest != DestLocal || rec.Issue != 0 {
			t.Fatalf("record %d = %+v, want addr %d size 512 local issue 0", i, rec, addrs[i])
		}
		if wantRank := cfg.GlobalRank(cfg.Decode(addrs[i])); rec.Rank != wantRank {
			t.Fatalf("record %d rank %d, want %d", i, rec.Rank, wantRank)
		}
		if rec.Done == 0 {
			t.Fatalf("record %d has zero completion", i)
		}
	}

	// Writes and zero-size reads must not be recorded.
	logged.Write(0, 0, 512)
	logged.Read(0, 0, 0, DestLocal)
	if log.Len() != len(addrs) {
		t.Fatalf("write or empty read leaked into the log: %d records", log.Len())
	}

	log.Reset()
	if log.Len() != 0 {
		t.Fatalf("Reset left %d records", log.Len())
	}

	// Detach: further reads are not recorded.
	logged.AttachLog(nil)
	logged.Read(0, 512, 512, DestHost)
	if log.Len() != 0 {
		t.Fatal("detached log still records")
	}
}
