package serve_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want serve.Priority
		ok   bool
	}{
		{"", serve.PriorityNormal, true},
		{"normal", serve.PriorityNormal, true},
		{"high", serve.PriorityHigh, true},
		{"low", serve.PriorityLow, true},
		{"urgent", 0, false},
		{"HIGH", 0, false},
	}
	for _, tc := range cases {
		got, err := serve.ParsePriority(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParsePriority(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for p, want := range map[serve.Priority]string{
		serve.PriorityHigh:   "high",
		serve.PriorityNormal: "normal",
		serve.PriorityLow:    "low",
	} {
		if p.String() != want {
			t.Errorf("Priority(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
}

// occupyFlusher parks the coalescer's flusher inside a gated backend Lookup
// so subsequent admissions accumulate in the queue. Returns the parked
// request's ticket.
func occupyFlusher(t *testing.T, co *serve.Coalescer, f *fakeBackend) serve.Ticket {
	t.Helper()
	parked := admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 1)
	<-f.enter
	return parked
}

// admit queues a one-query request synchronously: when it returns, the
// request holds its place in its lane, so a test orders arrivals by program
// order alone.
func admit(t *testing.T, co *serve.Coalescer, ctx context.Context, op tensor.ReduceOp, pri serve.Priority, idx header.Index) serve.Ticket {
	t.Helper()
	tk, err := co.Admit(ctx, serve.Request{Op: op, Queries: []embedding.Query{query(idx)}, Priority: pri})
	if err != nil {
		t.Fatalf("admit (priority %v): %v", pri, err)
	}
	return tk
}

func wait(t *testing.T, tk serve.Ticket) serve.Response {
	t.Helper()
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("request %d: %v", tk.ID(), err)
	}
	return res
}

// TestQoSShedLowFirst pins the admission thresholds: past the low-water
// fraction of MaxQueued, low-priority submissions shed while normal and
// high traffic is still admitted up to the full bound.
func TestQoSShedLowFirst(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 64)
	co, err := serve.NewCoalescer(serve.Config{
		BatchCapacity: 1, // full batches flush without lingering
		MaxQueued:     10,
		ShedLowWater:  0.5,
	}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := occupyFlusher(t, co, f)

	var queued []serve.Ticket
	tryReject := func(pri serve.Priority) {
		_, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3)}, Priority: pri})
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("priority %v submission past its bound returned %v, want ErrOverloaded", pri, err)
		}
	}

	// Low admits up to the low-water mark (0.5 x 10 = 5 queries)...
	for i := 0; i < 5; i++ {
		queued = append(queued, admit(t, co, context.Background(), tensor.OpSum, serve.PriorityLow, 2))
	}
	tryReject(serve.PriorityLow) // ...then sheds.
	// Normal and high still admit up to the full bound.
	for i := 0; i < 5; i++ {
		queued = append(queued, admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 2))
	}
	tryReject(serve.PriorityNormal)
	tryReject(serve.PriorityHigh)

	m := co.Metrics()
	if got := m.QueueDepth.Value(); got != 10 {
		t.Errorf("queue depth = %d, want 10", got)
	}
	for _, pri := range []serve.Priority{serve.PriorityLow, serve.PriorityNormal, serve.PriorityHigh} {
		if got := m.Shed.At(int(pri)).Value(); got != 1 {
			t.Errorf("shed{%v} = %d, want 1", pri, got)
		}
	}

	// Release the backend and drain everything still queued.
	close(f.gate)
	wait(t, parked)
	for _, tk := range queued {
		wait(t, tk)
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQoSOverloadAcceptance is the seeded burst gate: an open-loop burst at
// 2x the queue bound with a 20/80 high/low mix must shed only low-priority
// requests — every high-priority request completes — and the shed_total
// deltas land on the low lane.
func TestQoSOverloadAcceptance(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 1024)
	const maxQueued = 64
	co, err := serve.NewCoalescer(serve.Config{
		BatchCapacity: 8,
		MaxQueued:     maxQueued,
		ShedLowWater:  0.25,
	}, f, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Park the flusher so the burst piles into the admission queue.
	parked := occupyFlusher(t, co, f)

	// Seeded 20/80 mix over a burst of 2x MaxQueued requests: every fifth
	// request is high priority. The burst is admitted open-loop (no waiting
	// for completions) from one goroutine, so admission order is the loop
	// order.
	const burst = 2 * maxQueued
	var admitted []serve.Ticket
	var highOK, highShed, lowOK, lowShed int
	for i := 0; i < burst; i++ {
		pri := serve.PriorityLow
		if i%5 == 0 {
			pri = serve.PriorityHigh
		}
		tk, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(7)}, Priority: pri})
		switch {
		case pri == serve.PriorityHigh && err == nil:
			highOK++
		case pri == serve.PriorityHigh && errors.Is(err, serve.ErrOverloaded):
			highShed++
		case pri == serve.PriorityLow && err == nil:
			lowOK++
		case pri == serve.PriorityLow && errors.Is(err, serve.ErrOverloaded):
			lowShed++
		default:
			t.Fatalf("unexpected error on %v request: %v", pri, err)
		}
		if err == nil {
			admitted = append(admitted, tk)
		}
	}

	// Low requests shed once the queue as a whole holds the low-water mark
	// (0.25 x 64 = 16 queries: the burst's first 12 low and 4 high); every
	// high request fits the full bound.
	if highShed != 0 {
		t.Errorf("%d high-priority requests shed; overload must consume the low lane first", highShed)
	}
	if wantHigh := (burst + 4) / 5; highOK != wantHigh {
		t.Errorf("%d high-priority requests admitted, want all %d", highOK, wantHigh)
	}
	if lowOK != 12 || lowShed != burst-highOK-12 {
		t.Errorf("low lane admitted %d and shed %d, want 12 and %d", lowOK, lowShed, burst-highOK-12)
	}
	m := co.Metrics()
	if got := m.Shed.At(int(serve.PriorityHigh)).Value(); got != 0 {
		t.Errorf("shed_total{lane=high} = %d, want 0", got)
	}
	if got := m.Shed.At(int(serve.PriorityLow)).Value(); got != uint64(lowShed) {
		t.Errorf("shed_total{lane=low} = %d, want %d (one per client-observed rejection)", got, lowShed)
	}

	// Release the backend: every admitted request completes.
	close(f.gate)
	wait(t, parked)
	for _, tk := range admitted {
		wait(t, tk)
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// deadlineCtx reports a deadline without ever firing, so a test places the
// deadline on the manual clock's timeline.
type deadlineCtx struct {
	context.Context
	at time.Time
}

func (d deadlineCtx) Deadline() (time.Time, bool) { return d.at, true }

// TestQoSDeadlineEscape pins the starvation bound on manual time: a
// low-priority request is scheduled ahead of healthier high-priority work
// exactly when its deadline slack has shrunk below Config.DeadlineSlack.
func TestQoSDeadlineEscape(t *testing.T) {
	const slack, budget = 5 * time.Millisecond, 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		elapsed time.Duration
		want    []tensor.ReduceOp
	}{
		{"slack at the threshold keeps priority order", budget - slack, []tensor.ReduceOp{tensor.OpSum, tensor.OpSum, tensor.OpMin}},
		{"slack below the threshold escapes", budget - slack + 1, []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpSum}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake()
			f.gate = make(chan struct{})
			f.enter = make(chan struct{}, 16)
			// The flusher calls the backend sequentially, so recording each
			// batch's op gives the exact scheduling order.
			var opOrder []tensor.ReduceOp
			f.fail = func(b embedding.Batch) error {
				opOrder = append(opOrder, b.Op)
				return nil
			}
			clk := serve.NewManualClock()
			co, err := serve.NewCoalescerAt(serve.Config{BatchCapacity: 1, MaxQueued: 64, DeadlineSlack: slack}, f, nil, clk)
			if err != nil {
				t.Fatal(err)
			}
			parked := occupyFlusher(t, co, f)

			// A no-deadline high request, then a deadlined low request, with
			// different ops so they cannot share a batch.
			high := admit(t, co, context.Background(), tensor.OpSum, serve.PriorityHigh, 11)
			low := admit(t, co, deadlineCtx{context.Background(), clk.Now().Add(budget)}, tensor.OpMin, serve.PriorityLow, 12)
			clk.Advance(tc.elapsed)

			close(f.gate)
			wait(t, parked)
			wait(t, high)
			wait(t, low)
			if !slices.Equal(opOrder, tc.want) {
				t.Fatalf("backend saw batches %v, want %v", opOrder, tc.want)
			}
			if err := co.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
