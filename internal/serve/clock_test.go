package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// TestLingerAndAttributionOnManualClock drives one partial batch on manual
// time: it flushes at exactly its enqueue time plus Linger, not a nanosecond
// before, and its Breakdown attributes exactly the intervals the test
// advanced — the linger wait to Queue, the backend's own time to Backend,
// and nothing anywhere else.
func TestLingerAndAttributionOnManualClock(t *testing.T) {
	const linger, lookup = 10 * time.Millisecond, 3 * time.Millisecond
	clk := serve.NewManualClock()
	f := newFake()
	var flushedAt time.Time
	f.fail = func(embedding.Batch) error {
		flushedAt = clk.Now()
		clk.Advance(lookup) // the backend's own wall time
		return nil
	}
	co, err := serve.NewCoalescerAt(serve.Config{BatchCapacity: 4, Linger: linger}, f, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	enq := clk.Now()
	// The waiter takes the flight and lingers on the manual clock.
	waited := waitAsync(admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 1))
	if due := clk.AwaitTimer(); !due.Equal(enq.Add(linger)) {
		t.Fatalf("linger timer due %v after enqueue, want %v", due.Sub(enq), linger)
	}
	clk.Advance(linger - 1)
	if due := clk.AwaitTimer(); !due.Equal(enq.Add(linger)) {
		t.Fatalf("one nanosecond short of the linger the timer is due %v after enqueue, want it still armed for %v", due.Sub(enq), linger)
	}
	clk.Advance(1)
	bd := await(t, waited).Stats.Breakdown

	if !flushedAt.Equal(enq.Add(linger)) {
		t.Fatalf("partial batch reached the backend %v after enqueue, want exactly %v", flushedAt.Sub(enq), linger)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if bd.Queue.WallUS != us(linger) {
		t.Errorf("Queue = %v us, want exactly %v", bd.Queue.WallUS, us(linger))
	}
	if bd.Backend.WallUS != us(lookup) {
		t.Errorf("Backend = %v us, want exactly %v", bd.Backend.WallUS, us(lookup))
	}
	if bd.Coalesce.WallUS != 0 || bd.Cache.WallUS != 0 {
		t.Errorf("Coalesce/Cache = %v/%v us, want 0 (no time passed in them)", bd.Coalesce.WallUS, bd.Cache.WallUS)
	}
	if bd.TotalWallUS != us(linger+lookup) {
		t.Errorf("TotalWallUS = %v, want exactly %v", bd.TotalWallUS, us(linger+lookup))
	}
}

// TestSLOWindowRollsOnManualClock serves one over-objective request, then
// rolls the flight recorder's 60s window past it by advancing the clock. The
// handler takes one end stamp, so the latency histogram and the SLO record
// hold the same number.
func TestSLOWindowRollsOnManualClock(t *testing.T) {
	const lookup = 5 * time.Millisecond
	clk := serve.NewManualClock()
	fake := &fakeSystem{fakeBackend: newFake(), rows: 1 << 16}
	fake.fail = func(embedding.Batch) error {
		clk.Advance(lookup)
		return nil
	}
	srv, err := serve.NewAt(fake, serve.Config{
		SLOObjectives: map[serve.Priority]time.Duration{serve.PriorityNormal: time.Millisecond},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(`{"indices":[1,2]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("lookup: %d %s", rec.Code, rec.Body)
	}

	snap := srv.SLO().Snapshot()
	if len(snap.Slowest) != 1 || snap.Slowest[0].ID != 1 || snap.Slowest[0].Good {
		t.Fatalf("slowest ring = %+v, want request 1 filed as over its 1ms objective", snap.Slowest)
	}
	if got, want := snap.Slowest[0].LatencyUS, float64(lookup/time.Microsecond); got != want {
		t.Errorf("SLO latency = %v us, want exactly %v", got, want)
	}
	if got := srv.Metrics().RequestSeconds.Sum(); got != lookup.Seconds() {
		t.Errorf("request_seconds sum = %v, want %v — the same number the SLO recorder holds", got, lookup.Seconds())
	}
	if br := srv.SLO().BurnRate("normal"); br != 100 {
		t.Fatalf("burn rate inside the window = %v, want 100 (every request bad against a 1%% budget)", br)
	}

	clk.Advance(59 * time.Second)
	if br := srv.SLO().BurnRate("normal"); br != 100 {
		t.Errorf("burn rate 59 seconds later = %v, want the request still inside the 60s window", br)
	}
	clk.Advance(time.Second)
	if br := srv.SLO().BurnRate("normal"); br != 0 {
		t.Errorf("burn rate after the window rolled = %v, want 0", br)
	}
}
