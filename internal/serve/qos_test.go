package serve_test

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"fafnir/internal/embedding"
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
// so subsequent submissions accumulate in the admission queue. Returns the
// channel the parked request's result arrives on.
func occupyFlusher(t *testing.T, co *serve.Coalescer, f *fakeBackend) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1)}, Priority: serve.PriorityNormal})
		done <- err
	}()
	select {
	case <-f.enter:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the backend")
	}
	return done
}

// TestQoSShedLowFirst pins the admission thresholds: past the low-water
// fraction of MaxQueued, low-priority submissions shed while normal and
// high traffic is still admitted up to the full bound.
func TestQoSShedLowFirst(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 64)
	co, err := serve.NewCoalescer(serve.Config{
		QoS:           true,
		BatchCapacity: 1, // full batches flush without lingering
		MaxQueued:     10,
		ShedLowWater:  0.5,
	}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := occupyFlusher(t, co, f)

	var wg sync.WaitGroup
	results := make(chan error, 64)
	submit := func(pri serve.Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(2)}, Priority: pri})
			results <- err
		}()
	}
	// enqueue blocks until the queue really holds n queries, so each
	// admission below is observed before the next submission races it.
	enqueue := func(pri serve.Priority, want int) {
		submit(pri)
		deadline := time.After(5 * time.Second)
		for int(co.Metrics().QueueDepth.Value()) < want {
			select {
			case <-deadline:
				t.Fatalf("queue never reached %d queries", want)
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	tryReject := func(pri serve.Priority) {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3)}, Priority: pri})
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("priority %v submission past its bound returned %v, want ErrOverloaded", pri, err)
		}
	}

	// Low admits up to the low-water mark (0.5 x 10 = 5 queries)...
	for i := 0; i < 5; i++ {
		enqueue(serve.PriorityLow, i+1)
	}
	tryReject(serve.PriorityLow) // ...then sheds.
	// Normal and high still admit up to the full bound.
	for i := 0; i < 5; i++ {
		enqueue(serve.PriorityNormal, 6+i)
	}
	tryReject(serve.PriorityNormal)
	tryReject(serve.PriorityHigh)

	m := co.Metrics()
	if got := m.Shed.At(int(serve.PriorityLow)).Value(); got != 1 {
		t.Errorf("shed{low} = %d, want 1", got)
	}
	if got := m.Shed.At(int(serve.PriorityNormal)).Value(); got != 1 {
		t.Errorf("shed{normal} = %d, want 1", got)
	}
	if got := m.Shed.At(int(serve.PriorityHigh)).Value(); got != 1 {
		t.Errorf("shed{high} = %d, want 1", got)
	}

	// Release the backend and drain everything still queued.
	close(f.gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("queued request failed after release: %v", err)
		}
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
		QoS:           true,
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
	// request is high priority. The burst arrives open-loop (no waiting for
	// completions) from one goroutine, so admission order is deterministic
	// up to the flusher's single parked cut.
	const burst = 2 * maxQueued
	type shot struct {
		pri serve.Priority
		err error
	}
	var wg sync.WaitGroup
	shots := make(chan shot, burst)
	highLat := make(chan time.Duration, burst)
	wantHigh := 0
	for i := 0; i < burst; i++ {
		pri := serve.PriorityLow
		if i%5 == 0 {
			pri = serve.PriorityHigh
			wantHigh++
		}
		wg.Add(1)
		go func(pri serve.Priority) {
			defer wg.Done()
			start := time.Now()
			_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(7)}, Priority: pri})
			if pri == serve.PriorityHigh && err == nil {
				highLat <- time.Since(start)
			}
			shots <- shot{pri, err}
		}(pri)
		// Give each admission a moment to land so the queue fills in
		// arrival order rather than goroutine-scheduler order.
		time.Sleep(200 * time.Microsecond)
	}

	// Release the backend and let everything queued complete.
	close(f.gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	wg.Wait()
	close(shots)
	close(highLat)

	var highOK, highShed, lowOK, lowShed int
	for s := range shots {
		switch {
		case s.pri == serve.PriorityHigh && s.err == nil:
			highOK++
		case s.pri == serve.PriorityHigh && errors.Is(s.err, serve.ErrOverloaded):
			highShed++
		case s.pri == serve.PriorityLow && s.err == nil:
			lowOK++
		case s.pri == serve.PriorityLow && errors.Is(s.err, serve.ErrOverloaded):
			lowShed++
		case s.err != nil:
			t.Fatalf("unexpected error on %v request: %v", s.pri, s.err)
		}
	}
	if highShed != 0 {
		t.Errorf("%d high-priority requests shed; overload must consume the low lane first", highShed)
	}
	if lowShed == 0 {
		t.Error("no low-priority requests shed at 2x queue capacity")
	}
	m := co.Metrics()
	if got := m.Shed.At(int(serve.PriorityHigh)).Value(); got != 0 {
		t.Errorf("shed_total{lane=high} = %d, want 0", got)
	}
	if got := m.Shed.At(int(serve.PriorityLow)).Value(); got != uint64(lowShed) {
		t.Errorf("shed_total{lane=low} = %d, want %d (one per client-observed rejection)", got, lowShed)
	}
	// Every admitted high request completed; its queueing delay is bounded
	// by the release, not by low-priority work scheduled ahead of it.
	if highOK+highShed != wantHigh {
		t.Errorf("high outcomes %d+%d, want %d", highOK, highShed, wantHigh)
	}
	var lats []time.Duration
	for d := range highLat {
		lats = append(lats, d)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if p99 := lats[len(lats)*99/100]; p99 > 30*time.Second {
		t.Errorf("high-priority p99 %v unbounded under overload", p99)
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQoSDeadlineEscape pins the starvation bound: a low-priority request
// about to miss its deadline is scheduled ahead of healthier high-priority
// work.
func TestQoSDeadlineEscape(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 16)
	// The flusher calls the backend sequentially, so recording each batch's
	// op gives the exact scheduling order without racing on completions.
	var opOrder []tensor.ReduceOp
	f.fail = func(b embedding.Batch) error {
		opOrder = append(opOrder, b.Op)
		return nil
	}
	co, err := serve.NewCoalescer(serve.Config{
		QoS:           true,
		BatchCapacity: 1,
		MaxQueued:     64,
		DeadlineSlack: time.Hour, // every finite deadline counts as urgent
	}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := occupyFlusher(t, co, f)

	// Queue a no-deadline high request, then a deadlined low request, with
	// different ops so they cannot share a batch.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(11)}, Priority: serve.PriorityHigh})
		if err != nil {
			t.Error(err)
		}
	}()
	// The high request must be queued before the low one so strict priority
	// alone would schedule it first.
	for int(co.Metrics().QueueDepth.Value()) < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	go func() {
		defer wg.Done()
		_, err := co.Submit(ctx, serve.Request{Op: tensor.OpMin, Queries: []embedding.Query{query(12)}, Priority: serve.PriorityLow})
		if err != nil {
			t.Error(err)
		}
	}()
	for int(co.Metrics().QueueDepth.Value()) < 2 {
		time.Sleep(time.Millisecond)
	}

	// Release the parked batch, then serve the two queued ones.
	close(f.gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	wg.Wait()
	want := []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpSum}
	if len(opOrder) != 3 || opOrder[1] != want[1] || opOrder[2] != want[2] {
		t.Fatalf("backend saw batches %v; the deadlined OpMin low request should have escaped ahead of the no-deadline OpSum high one (want %v)", opOrder, want)
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQoSOffSingleQueue pins backward compatibility: with QoS disabled,
// priorities collapse onto the normal lane — admission, scheduling, and
// shed accounting behave exactly like the pre-lane single queue.
func TestQoSOffSingleQueue(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1, MaxQueued: 1}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := occupyFlusher(t, co, f)

	// Fill the one-query queue...
	admitted := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(2)}, Priority: serve.PriorityLow})
		admitted <- err
	}()
	for int(co.Metrics().QueueDepth.Value()) < 1 {
		time.Sleep(time.Millisecond)
	}
	// ...then every lane rejects identically, and the shed lands on the
	// normal lane regardless of the requested priority.
	for _, pri := range []serve.Priority{serve.PriorityHigh, serve.PriorityNormal, serve.PriorityLow} {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3)}, Priority: pri})
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("priority %v got %v, want ErrOverloaded", pri, err)
		}
	}
	m := co.Metrics()
	if got := m.Shed.At(int(serve.PriorityNormal)).Value(); got != 3 {
		t.Errorf("shed{normal} = %d, want 3 (QoS off folds every lane into normal)", got)
	}
	if got := m.Shed.At(int(serve.PriorityHigh)).Value() + m.Shed.At(int(serve.PriorityLow)).Value(); got != 0 {
		t.Errorf("shed{high}+shed{low} = %d, want 0 with QoS off", got)
	}

	close(f.gate)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
