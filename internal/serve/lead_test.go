package serve_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// goroutineID reads the calling goroutine's ID from its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestWaitFliesOnCallersGoroutine: one goroutine doing Admit then Wait flies
// its batch itself, and a coalescer's whole life, NewCoalescer through
// Close, starts no goroutine. Other tests' goroutines may still be exiting
// when this one starts, so the count is retried a few times before it fails.
func TestWaitFliesOnCallersGoroutine(t *testing.T) {
	var before, during, after int
	for attempt := 0; attempt < 5; attempt++ {
		before = runtime.NumGoroutine()
		caller, flier := goroutineID(), ""
		f := newFake()
		f.fail = func(embedding.Batch) error {
			flier, during = goroutineID(), runtime.NumGoroutine()
			return nil
		}
		co, err := serve.NewCoalescer(serve.Config{}, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := wait(t, admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 1))
		if err := co.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		after = runtime.NumGoroutine()
		if flier != caller || res.Stats.Requests != 1 {
			t.Fatalf("the backend ran on goroutine %s for %d requests, want the waiter's own (%s) for 1", flier, res.Stats.Requests, caller)
		}
		if during == before && after == before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before NewCoalescer, %d during the flight, %d after Close; want no change", before, during, after)
}

// watchedCtx is a cancellable context that lets a test sequence a waiter
// exactly: the waiter's first Done call, made once it is registered as
// waiting, closes selecting; once cancelled, its first Err call closes
// erring and holds until release is closed.
type watchedCtx struct {
	context.Context
	once, errOnce     sync.Once
	selecting, erring chan struct{}
	release           chan struct{}
}

func newWatchedCtx() (*watchedCtx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return &watchedCtx{Context: ctx, selecting: make(chan struct{}), erring: make(chan struct{}), release: make(chan struct{})}, cancel
}

func (w *watchedCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.selecting) })
	return w.Context.Done()
}

func (w *watchedCtx) Err() error {
	err := w.Context.Err()
	if err != nil {
		w.errOnce.Do(func() {
			close(w.erring)
			<-w.release
		})
	}
	return err
}

// TestDepartingWaiterStrandsNothing: a waiter whose ctx ends just as the
// flight is released leaves without stranding the queue, so a third request
// still completes. The waiter has left its select and not yet withdrawn its
// request when the flight lands, so the next holder cuts that request and
// drops it as expired.
func TestDepartingWaiterStrandsNothing(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded: a stranded flight would hold Close forever.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	defer co.Close(closeCtx)

	parked := parkLeader(t, co, f)
	quitter, quit := newWatchedCtx()
	leaves := waitAsync(admit(t, co, quitter, tensor.OpSum, serve.PriorityNormal, 2))
	<-quitter.selecting
	stayer, _ := newWatchedCtx()
	stays := waitAsync(admit(t, co, stayer, tensor.OpSum, serve.PriorityNormal, 3))
	<-stayer.selecting

	quit()
	<-quitter.erring // the quitter has left its select and not yet withdrawn
	close(f.gate)
	await(t, parked) // the parked leader has released the flight
	close(quitter.release)

	if o := <-leaves; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("departing waiter returned %v, want Canceled", o.err)
	}
	select {
	case o := <-stays:
		if o.err != nil || len(o.res.Outputs) != 1 {
			t.Fatalf("third request: %v", o.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("third request stranded by the departing waiter")
	}
	// The departed request was cut, or withdrawn, exactly once.
	if got := co.Metrics().ExpiredInQueue.Value(); got != 1 {
		t.Fatalf("ExpiredInQueue = %d, want 1", got)
	}
}

// TestExpiredFollowersFreeTheQueue: followers whose ctx ends while a slow
// flight holds the queue full withdraw their requests as they leave, so the
// queue's room returns at once and later admissions succeed without any
// waiter to fly the abandoned work.
func TestExpiredFollowersFreeTheQueue(t *testing.T) {
	f := newFake()
	f.gate = make(chan struct{})
	f.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1, MaxQueued: 2}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded: a failure before the gate opens leaves the flight parked.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelClose()
	defer co.Close(closeCtx)
	m := co.Metrics()

	parked := parkLeader(t, co, f)
	ctx, cancel := context.WithCancel(context.Background())
	var left []<-chan outcome
	for i := 2; i <= 3; i++ {
		left = append(left, waitAsync(admit(t, co, ctx, tensor.OpSum, serve.PriorityNormal, header.Index(i))))
	}
	if _, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(4)}}); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("admission into a full queue: %v, want ErrOverloaded", err)
	}
	cancel()
	for _, ch := range left {
		if o := <-ch; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("expired follower returned %v, want Canceled", o.err)
		}
	}
	if d, e := m.QueueDepth.Value(), m.ExpiredInQueue.Value(); d != 0 || e != 2 {
		t.Fatalf("after both followers left: QueueDepth = %d, ExpiredInQueue = %d; want 0 and 2", d, e)
	}
	later := waitAsync(admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 5))
	close(f.gate)
	await(t, parked)
	if res := await(t, later); res.Stats.Requests != 1 {
		t.Fatalf("later request rode a batch of %d requests, want 1", res.Stats.Requests)
	}
	if d := m.QueueDepth.Value(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
}

// TestExpiredLeaderWithdrawsWhileLingering: a holder whose ctx ends while it
// lingers withdraws its own request and releases the flight; the queue is
// empty afterwards and the next request flies.
func TestExpiredLeaderWithdrawsWhileLingering(t *testing.T) {
	clk := serve.NewManualClock()
	f := newFake()
	batches := 0
	f.fail = func(embedding.Batch) error {
		batches++
		return nil
	}
	co, err := serve.NewCoalescerAt(serve.Config{BatchCapacity: 4, Linger: time.Hour}, f, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())
	m := co.Metrics()

	ctx, cancel := context.WithCancel(context.Background())
	leaves := waitAsync(admit(t, co, ctx, tensor.OpSum, serve.PriorityNormal, 1))
	clk.AwaitTimer() // the holder lingers
	cancel()
	if o := <-leaves; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("lingering leader returned %v, want Canceled", o.err)
	}
	if d, e := m.QueueDepth.Value(), m.ExpiredInQueue.Value(); d != 0 || e != 1 {
		t.Fatalf("after the leader left: QueueDepth = %d, ExpiredInQueue = %d; want 0 and 1", d, e)
	}
	next := waitAsync(admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 2))
	clk.AwaitTimer()
	clk.Advance(time.Hour)
	if res := await(t, next); res.Stats.Requests != 1 {
		t.Fatalf("next request rode a batch of %d requests, want 1", res.Stats.Requests)
	}
	if batches != 1 {
		t.Fatalf("backend ran %d batches, want 1: the withdrawn request never flies", batches)
	}
}

// TestCloseFliesUnwaitedTickets: Close flies tickets that were admitted but
// never waited on, on its own goroutine, and their results wait for them.
func TestCloseFliesUnwaitedTickets(t *testing.T) {
	f := newFake()
	var fliers []string
	f.fail = func(embedding.Batch) error {
		fliers = append(fliers, goroutineID())
		return nil
	}
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 2, Linger: time.Hour}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []serve.Ticket
	for i := 1; i <= 3; i++ {
		tickets = append(tickets, admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, header.Index(i)))
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	closer := goroutineID()
	if len(fliers) != 2 || fliers[0] != closer || fliers[1] != closer {
		t.Fatalf("Close flew %d batches on goroutines %v, want 2 on its own (%s)", len(fliers), fliers, closer)
	}
	for i, tk := range tickets {
		res := wait(t, tk)
		if want := 2 - i/2; res.Stats.Requests != want {
			t.Errorf("ticket %d rode a batch of %d requests, want %d", i, res.Stats.Requests, want)
		}
	}
}

// flushed is one batch the backend saw: its op, query count and when.
type flushed struct {
	op tensor.ReduceOp
	nq int
	at time.Duration
}

// TestFlightsKeepTheCut: requests flying their own batches cut them as
// Coalescer documents. With Linger 0, a queue built behind a parked
// leader drains as lane-ordered, op-sharing prefixes topped up from the
// other lanes. With Linger above 0, a partial batch flies at its oldest
// rider's enqueue plus Linger, an arrival the cut cannot absorb flies it at
// once, and an arrival that fills it wakes the lingering holder.
func TestFlightsKeepTheCut(t *testing.T) {
	record := func(f *fakeBackend, clk *serve.ManualClock) *[]flushed {
		var seen []flushed
		t0 := clk.Now()
		f.fail = func(b embedding.Batch) error {
			seen = append(seen, flushed{b.Op, len(b.Queries), clk.Now().Sub(t0)})
			return nil
		}
		return &seen
	}
	request := func(t *testing.T, co *serve.Coalescer, op tensor.ReduceOp, pri serve.Priority, n int) <-chan outcome {
		t.Helper()
		qs := make([]embedding.Query, n)
		for i := range qs {
			qs[i] = query(header.Index(i + 1))
		}
		tk, err := co.Admit(context.Background(), serve.Request{Op: op, Queries: qs, Priority: pri})
		if err != nil {
			t.Fatal(err)
		}
		return waitAsync(tk)
	}
	check := func(t *testing.T, got []flushed, want ...flushed) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("backend saw %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("backend saw %+v, want %+v", got, want)
			}
		}
	}

	t.Run("linger 0", func(t *testing.T) {
		clk := serve.NewManualClock()
		f := newFake()
		f.gate = make(chan struct{})
		f.enter = make(chan struct{}, 16)
		seen := record(f, clk)
		co, err := serve.NewCoalescerAt(serve.Config{BatchCapacity: 4}, f, nil, clk)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close(context.Background())
		parked := parkLeader(t, co, f)
		var out []<-chan outcome
		out = append(out, request(t, co, tensor.OpSum, serve.PriorityNormal, 1))
		out = append(out, request(t, co, tensor.OpMax, serve.PriorityNormal, 1))
		out = append(out, request(t, co, tensor.OpSum, serve.PriorityNormal, 2))
		out = append(out, request(t, co, tensor.OpSum, serve.PriorityHigh, 2))
		out = append(out, request(t, co, tensor.OpSum, serve.PriorityLow, 1))
		close(f.gate)
		await(t, parked)
		requests := make([]int, len(out))
		for i, ch := range out {
			requests[i] = await(t, ch).Stats.Requests
		}
		// The high lane first, topped up by the normal lane's sum prefix
		// and the low lane; then the normal lane's max, then its last sum.
		check(t, *seen, flushed{tensor.OpSum, 1, 0}, flushed{tensor.OpSum, 4, 0}, flushed{tensor.OpMax, 1, 0}, flushed{tensor.OpSum, 2, 0})
		if want := []int{3, 1, 1, 3, 3}; !slices.Equal(requests, want) {
			t.Fatalf("requests per rider's batch = %v, want %v", requests, want)
		}
	})

	t.Run("linger above 0", func(t *testing.T) {
		const linger = 10 * time.Millisecond
		clk := serve.NewManualClock()
		f := newFake()
		seen := record(f, clk)
		co, err := serve.NewCoalescerAt(serve.Config{BatchCapacity: 4, Linger: linger}, f, nil, clk)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close(context.Background())

		r1 := request(t, co, tensor.OpSum, serve.PriorityNormal, 1)
		if due := clk.AwaitTimer().Sub(clk.Now()); due != linger {
			t.Fatalf("first rider lingers %v, want %v", due, linger)
		}
		clk.Advance(3 * time.Millisecond)
		r2 := request(t, co, tensor.OpSum, serve.PriorityNormal, 2) // absorbed: still lingering
		r3 := request(t, co, tensor.OpMax, serve.PriorityNormal, 1) // not absorbable: flies the sums now
		await(t, r1)
		await(t, r2)
		if due := clk.AwaitTimer().Sub(clk.Now()); due != linger {
			t.Fatalf("the max rider lingers %v, want %v from its own enqueue", due, linger)
		}
		clk.Advance(linger)
		await(t, r3)

		r4 := request(t, co, tensor.OpSum, serve.PriorityNormal, 2)
		clk.AwaitTimer()
		r5 := request(t, co, tensor.OpSum, serve.PriorityNormal, 2) // fills the batch: flies at once
		await(t, r4)
		await(t, r5)
		check(t, *seen,
			flushed{tensor.OpSum, 3, 3 * time.Millisecond},
			flushed{tensor.OpMax, 1, 13 * time.Millisecond},
			flushed{tensor.OpSum, 4, 13 * time.Millisecond})
	})
}

// TestExpiredWaiterNeverLeads: a waiter whose ctx has already ended returns
// at once even when the flight is free for it to take, as a follower would,
// and flies none of the work queued ahead of it. Wait's select picks among
// ready cases at random, so the check is repeated.
func TestExpiredWaiterNeverLeads(t *testing.T) {
	f := newFake()
	batches := 0
	f.fail = func(embedding.Batch) error {
		batches++
		return nil
	}
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	ahead := admit(t, co, context.Background(), tensor.OpSum, serve.PriorityNormal, 1)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 32; i++ {
		if _, err := admit(t, co, ended, tensor.OpSum, serve.PriorityNormal, 2).Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("expired waiter returned %v, want Canceled", err)
		}
		if batches != 0 {
			t.Fatalf("expired waiter %d flew %d batches, want none", i, batches)
		}
	}
	if got := co.Metrics().ExpiredInQueue.Value(); got != 32 {
		t.Fatalf("ExpiredInQueue = %d, want 32", got)
	}
	if res := wait(t, ahead); res.Stats.Requests != 1 {
		t.Fatalf("the request ahead rode a batch of %d requests, want 1", res.Stats.Requests)
	}
}
