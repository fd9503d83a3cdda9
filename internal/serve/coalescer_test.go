package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fafnir"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/header"
	"fafnir/internal/memmap"
	"fafnir/internal/oracle"
	"fafnir/internal/serve"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

const testRowsPerTable = 2048

func testSystem(t testing.TB, cfg fafnir.SystemConfig) *fafnir.System {
	t.Helper()
	if cfg.RowsPerTable == 0 {
		cfg.RowsPerTable = testRowsPerTable
	}
	sys, err := fafnir.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// fakeBackend computes lookups with the independent oracle (no engine, no
// timing); tests use it where they need to gate, fail, or count calls
// without the engine's cost.
type fakeBackend struct {
	store *embedding.Store
	gate  chan struct{} // when non-nil, every Lookup receives once before working
	enter chan struct{} // when non-nil, signals Lookup entry
	fail  func(b embedding.Batch) error
	sink  core.RowSink // attached by the coalescer around cached lookups
}

func (f *fakeBackend) Lookup(b embedding.Batch) (*core.TimedResult, error) {
	if f.enter != nil {
		f.enter <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.fail != nil {
		if err := f.fail(b); err != nil {
			return nil, err
		}
	}
	outs, err := oracle.Lookup(f.store, b)
	if err != nil {
		return nil, err
	}
	res := &core.TimedResult{}
	res.Outputs = outs
	res.MemoryReads = b.UniqueIndices().Len()
	res.HWBatches = 1
	if f.sink != nil {
		var rows []core.StagedRow
		for _, idx := range b.UniqueIndices() {
			rows = append(rows, core.StagedRow{Index: idx, Row: f.store.MustVector(idx)})
		}
		f.sink(rows)
	}
	return res, nil
}

func newFake() *fakeBackend {
	return &fakeBackend{store: embedding.MustStore(1<<16, 16, 1)}
}

func query(indices ...header.Index) embedding.Query {
	return embedding.Query{Indices: header.NewIndexSet(indices...)}
}

// TestCoalescerConcurrentRace pushes N goroutines x M requests through a
// coalescer over the real engine and verifies every caller got exactly its
// own golden result back, whatever batches the requests shared. Run under
// -race by scripts/check.sh.
func TestCoalescerConcurrentRace(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	const goroutines, perG = 6, 8
	b, err := sys.GenerateBatch(goroutines*perG, 11)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := sys.Golden(b)
	if err != nil {
		t.Fatal(err)
	}

	co, err := serve.NewCoalescer(serve.Config{
		BatchCapacity: 8,
		Linger:        200 * time.Microsecond,
		MaxQueued:     goroutines * perG,
	}, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				qi := g*perG + i
				res, err := co.Submit(context.Background(), serve.Request{Op: b.Op, Queries: []embedding.Query{b.Queries[qi]}})
				if err != nil {
					errs[g] = fmt.Errorf("query %d: %w", qi, err)
					return
				}
				if len(res.Outputs) != 1 || !res.Outputs[0].Equal(golden[qi]) {
					errs[g] = fmt.Errorf("query %d: wrong output (batch %+v)", qi, res.Stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := co.Metrics()
	if got := m.Queries.Value(); got != goroutines*perG {
		t.Fatalf("served %d queries, want %d", got, goroutines*perG)
	}
	if m.Batches.Value() == 0 {
		t.Fatal("no batches flushed")
	}
}

// TestCoalescingWinDeterministic is the acceptance check at the coalescer
// level: a seeded Zipf workload served through a full shared batch reads
// strictly fewer DRAM vectors per query than the same queries served one
// request per batch.
func TestCoalescingWinDeterministic(t *testing.T) {
	const n = 8
	sys := testSystem(t, fafnir.SystemConfig{BatchCapacity: n})
	b, err := sys.GenerateBatch(n, 3) // Zipf 1.3 by default: hot rows shared across queries
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: each query alone, one hardware batch per request.
	base := testSystem(t, fafnir.SystemConfig{BatchCapacity: n})
	baseline := 0
	for _, q := range b.Queries {
		res, err := base.Lookup(embedding.Batch{Queries: []embedding.Query{q}, Op: b.Op})
		if err != nil {
			t.Fatal(err)
		}
		baseline += res.MemoryReads
	}

	// Served: capacity n with a long linger, so the n-th concurrent request
	// deterministically triggers one full flush containing all n queries.
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: n, Linger: time.Minute, MaxQueued: 4 * n}, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = co.Submit(context.Background(), serve.Request{Op: b.Op, Queries: []embedding.Query{b.Queries[i]}})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := co.Metrics()
	if got := m.Batches.Value(); got != 1 {
		t.Fatalf("flushed %d batches, want exactly 1", got)
	}
	served := int(m.DRAMReads.Value())
	if served >= baseline {
		t.Fatalf("coalescing win missing: served batch read %d vectors, single-request baseline read %d", served, baseline)
	}
	if perQ, basePerQ := m.ReadsPerQuery(), float64(baseline)/n; perQ >= basePerQ {
		t.Fatalf("reads/query %v not below baseline %v", perQ, basePerQ)
	}
}

// TestCoalescerDeadlineWhileQueued expires a request while it waits behind a
// stuck flush; Submit must return the context error promptly and the request
// must be skipped (not computed) once the flusher reaches it.
func TestCoalescerDeadlineWhileQueued(t *testing.T) {
	fake := newFake()
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1, MaxQueued: 8}, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	// A occupies the backend.
	aDone := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1, 2)}})
		aDone <- err
	}()
	<-fake.enter

	// B queues behind A with a deadline that passes while it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := co.Submit(ctx, serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3, 4)}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request returned %v, want DeadlineExceeded", err)
	}
	if res.Stats.RequestID != 2 {
		t.Fatalf("timed-out request reports ID %d, want 2 (its admission order)", res.Stats.RequestID)
	}

	// Release A (and everything after it); the flusher must skip expired B
	// and stay healthy.
	close(fake.gate)
	if err := <-aDone; err != nil {
		t.Fatalf("request A failed: %v", err)
	}
	res, err = co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(5)}})
	if err != nil || len(res.Outputs) != 1 {
		t.Fatalf("coalescer wedged after expiry: %v", err)
	}
	// B sat ahead of this request in the same lane, so its flight is over.
	if got := co.Metrics().ExpiredInQueue.Value(); got != 1 {
		t.Fatalf("ExpiredInQueue = %d, want 1", got)
	}
}

// TestCoalescerDeadlineDuringFlush expires a request while its own batch is
// executing; Submit returns the context error and the flusher's late
// delivery is dropped without blocking anything.
func TestCoalescerDeadlineDuringFlush(t *testing.T) {
	fake := newFake()
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 4, MaxQueued: 8}, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = co.Submit(ctx, serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(7, 8)}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-flush expiry returned %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Submit blocked %v past its deadline", waited)
	}
	<-fake.enter     // the flush had started before the deadline hit
	close(fake.gate) // let it finish; delivery lands in the buffer and is dropped

	res, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(9)}})
	if err != nil || len(res.Outputs) != 1 {
		t.Fatalf("coalescer wedged after mid-flush expiry: %v", err)
	}
}

// TestCoalescerShutdownWhileQueued drains a coalescer with requests still
// queued behind a stuck flush: the queued work completes, then Close
// returns, and later submissions are refused with ErrDraining.
func TestCoalescerShutdownWhileQueued(t *testing.T) {
	fake := newFake()
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 2, MaxQueued: 8, Linger: time.Minute}, fake, nil)
	if err != nil {
		t.Fatal(err)
	}

	aDone := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1), query(2)}})
		aDone <- err
	}()
	<-fake.enter // A is mid-flush, holding the backend

	// B and C queue behind it.
	var queued []serve.Ticket
	for i := 0; i < 2; i++ {
		tk, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(header.Index(10 + i))}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}

	// A Close that cannot wait still marks the queue draining.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := co.Close(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close on a cancelled context returned %v, want Canceled", err)
	}
	if _, err := co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1)}}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("Admit while draining returned %v, want ErrDraining", err)
	}
	close(fake.gate) // unblock A and everything after it

	if err := <-aDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	for _, tk := range queued {
		if r, err := tk.Wait(); err != nil || len(r.Outputs) != 1 {
			t.Fatalf("queued request dropped during drain: %v", err)
		}
	}
	if err := co.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1)}}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain Submit returned %v, want ErrDraining", err)
	}
	// Close is idempotent.
	if err := co.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCoalescerOverload fills the bounded queue and checks the next
// submission fails fast with ErrOverloaded instead of queueing.
func TestCoalescerOverload(t *testing.T) {
	fake := newFake()
	fake.gate = make(chan struct{})
	fake.enter = make(chan struct{}, 16)
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 1, MaxQueued: 1}, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(fake.gate)
		co.Close(context.Background())
	}()

	var admitted [2]serve.Ticket
	for i := range admitted {
		if admitted[i], err = co.Admit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(header.Index(i + 1))}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-fake.enter // A holds the backend; queue is empty again
		}
	}

	start := time.Now()
	_, err = co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(3)}})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("over-admission returned %v, want ErrOverloaded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("overload rejection took %v, want fail-fast", took)
	}
	fake.gate <- struct{}{}
	fake.gate <- struct{}{}
	<-fake.enter
	for i, tk := range admitted {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestCoalescerMixedOps verifies requests with different pooling operations
// never share a batch and both come back correct.
func TestCoalescerMixedOps(t *testing.T) {
	fake := newFake()
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 8, Linger: 5 * time.Millisecond, MaxQueued: 16}, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	q := query(1, 2, 3)
	type res struct {
		outs  []tensor.Vector
		stats serve.BatchStats
		err   error
	}
	run := func(op tensor.ReduceOp, ch chan res) {
		r, err := co.Submit(context.Background(), serve.Request{Op: op, Queries: []embedding.Query{q}})
		ch <- res{r.Outputs, r.Stats, err}
	}
	sumCh, maxCh := make(chan res, 1), make(chan res, 1)
	go run(tensor.OpSum, sumCh)
	go run(tensor.OpMax, maxCh)
	sum, max := <-sumCh, <-maxCh
	if sum.err != nil || max.err != nil {
		t.Fatalf("mixed-op submits failed: %v / %v", sum.err, max.err)
	}
	if sum.stats.Requests != 1 || max.stats.Requests != 1 {
		t.Fatalf("ops shared a batch: sum %+v, max %+v", sum.stats, max.stats)
	}
	wantSum, err := oracle.Lookup(fake.store, embedding.Batch{Queries: []embedding.Query{q}, Op: tensor.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := oracle.Lookup(fake.store, embedding.Batch{Queries: []embedding.Query{q}, Op: tensor.OpMax})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.outs[0].Equal(wantSum[0]) || !max.outs[0].Equal(wantMax[0]) {
		t.Fatal("mixed-op outputs wrong")
	}
	if co.Metrics().Batches.Value() != 2 {
		t.Fatalf("flushed %d batches, want 2", co.Metrics().Batches.Value())
	}
}

// poisonedIndexRanks finds an index whose primary and replica ranks the test
// darkens, plus indices on other ranks that stay healthy, mirroring the
// layout NewSystem builds.
func poisonedIndexRanks(t *testing.T) (poison header.Index, dark []int, healthy []header.Index) {
	t.Helper()
	layout := memmap.Uniform(dram.DDR4(), 512, 32, testRowsPerTable)
	poison = header.Index(0)
	primary := layout.Rank(poison)
	replica, _, err := layout.Replica(poison)
	if err != nil {
		t.Fatal(err)
	}
	dark = []int{primary, replica}
	for idx := header.Index(1); len(healthy) < 8 && uint64(idx) < layout.TotalRows(); idx++ {
		r := layout.Rank(idx)
		if r != primary && r != replica {
			healthy = append(healthy, idx)
		}
	}
	if len(healthy) < 8 {
		t.Fatal("could not find healthy indices")
	}
	return poison, dark, healthy
}

// TestCoalescerFaultIsolation coalesces a poisoned request (its index lives
// on a rank whose primary and replica are both dark) with a healthy one. The
// shared batch fails; the isolation retry must confine the structured
// ErrRankFailed to the poisoned caller while the healthy caller still gets
// its verified answer — and, having asked for ?debug=trace, the echo, flush
// span and full Breakdown of the one-request flight that served it.
func TestCoalescerFaultIsolation(t *testing.T) {
	poison, dark, healthy := poisonedIndexRanks(t)
	plan := fafnir.FaultPlan{
		Seed: 7,
		RankFailures: []fafnir.RankFailure{
			{Rank: dark[0], At: 0},
			{Rank: dark[1], At: 0},
		},
	}
	sys := testSystem(t, fafnir.SystemConfig{Faults: plan})
	co, err := serve.NewCoalescer(serve.Config{BatchCapacity: 2, Linger: time.Minute, MaxQueued: 8}, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())

	goodQ := query(healthy[:4]...)
	badQ := query(poison, healthy[4], healthy[5])

	goodTk, err := co.Admit(context.Background(), serve.Request{Op: fafnir.OpSum, Queries: []embedding.Query{goodQ}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	badTk, err := co.Admit(context.Background(), serve.Request{Op: fafnir.OpSum, Queries: []embedding.Query{badQ}})
	if err != nil {
		t.Fatal(err)
	}
	good, goodErr := goodTk.Wait()
	_, badErr := badTk.Wait()

	if !errors.Is(badErr, fafnir.ErrRankFailed) {
		t.Fatalf("poisoned caller got %v, want ErrRankFailed", badErr)
	}
	if goodErr != nil {
		t.Fatalf("healthy caller got the batch error: %v", goodErr)
	}
	if !good.Stats.Isolated || good.Stats.Requests != 1 {
		t.Fatalf("healthy result should come from an isolation retry, got %+v", good.Stats)
	}
	golden, err := sys.Golden(embedding.Batch{Queries: []embedding.Query{goodQ}, Op: fafnir.OpSum})
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Outputs) != 1 || !good.Outputs[0].Equal(golden[0]) {
		t.Fatal("healthy caller's output wrong after isolation retry")
	}
	if co.Metrics().IsolationRetries.Value() != 1 {
		t.Fatalf("IsolationRetries = %d, want 1", co.Metrics().IsolationRetries.Value())
	}
	if got := co.Metrics().ExpiredInQueue.Value(); got != 0 {
		t.Fatalf("ExpiredInQueue = %d, want 0", got)
	}

	// The isolated rider flew the same stage list as any other flight.
	bd := good.Stats.Breakdown
	if bd == nil || bd.RequestID != goodTk.ID() || bd.TotalCycles == 0 || bd.TotalWallUS <= 0 {
		t.Fatalf("isolated rider's breakdown = %+v, want its own ID, cycles and wall time", bd)
	}
	if sum := bd.Backend.Cycles + bd.Combine.Cycles + bd.Transfer.Cycles; sum != bd.TotalCycles {
		t.Fatalf("isolated breakdown stages sum to %d, total is %d", sum, bd.TotalCycles)
	}
	if _, err := fafnir.ValidateTrace(good.Trace); err != nil {
		t.Fatalf("isolated rider's trace echo invalid: %v", err)
	}
	var doc struct {
		TraceEvents []chainEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(good.Trace, &doc); err != nil {
		t.Fatal(err)
	}
	var flushID int64
	hwBatches := 0
	for _, ev := range doc.TraceEvents {
		if parent, _ := argInt(ev, telemetry.ArgParent); ev.Name == "flush" && parent == int64(goodTk.ID()) {
			flushID, _ = argInt(ev, telemetry.ArgSpan)
		}
	}
	for _, ev := range doc.TraceEvents {
		if parent, _ := argInt(ev, telemetry.ArgParent); ev.Name == "hw_batch" && parent == flushID {
			hwBatches++
		}
	}
	if flushID == 0 || hwBatches == 0 {
		t.Fatalf("isolated echo has flush span %d with %d hw_batch children, want the request -> flush -> hw_batch chain", flushID, hwBatches)
	}
}

// TestCoalescerSubmitValidation covers the cheap argument checks.
func TestCoalescerSubmitValidation(t *testing.T) {
	co, err := serve.NewCoalescer(serve.Config{}, newFake(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())
	if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.OpSum, Queries: nil}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := co.Submit(context.Background(), serve.Request{Op: tensor.ReduceOp(42), Queries: []embedding.Query{query(1)}}); err == nil {
		t.Error("invalid op accepted")
	}
	if _, err := serve.NewCoalescer(serve.Config{BatchCapacity: -1}, newFake(), nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := serve.NewCoalescer(serve.Config{}, nil, nil); err == nil {
		t.Error("nil backend accepted")
	}
}
