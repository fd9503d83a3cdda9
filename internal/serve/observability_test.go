package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"

	"fafnir"
	"fafnir/internal/embedding"
	"fafnir/internal/serve"
	"fafnir/internal/telemetry"
	"fafnir/internal/tensor"
)

// chainEvent is the decoded slice of a trace event the span-chain walk needs.
type chainEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

func argInt(ev chainEvent, key string) (int64, bool) {
	v, ok := ev.Args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return int64(f), ok
}

func debugLookup(t *testing.T, url string) serve.LookupResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/lookup?debug=trace", "application/json",
		strings.NewReader(`{"queries":[[1,2,3],[4,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	var lr serve.LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestDebugTraceSpanChain is the tentpole acceptance check: a traced request's
// spans must form a single parent-linked chain across the serving layers —
// request (root) -> flush -> hardware batch — walkable through the span/parent
// args in the echoed Chrome trace.
func TestDebugTraceSpanChain(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	_, ts := newTestServer(t, sys, serve.Config{})

	lr := debugLookup(t, ts.URL)
	if lr.Breakdown == nil {
		t.Fatal("debug=trace response carries no breakdown")
	}
	if lr.Breakdown.RequestID == 0 {
		t.Fatal("request was never assigned an ID")
	}
	if len(lr.Trace) == 0 {
		t.Fatal("debug=trace response carries no trace")
	}

	var doc struct {
		TraceEvents []chainEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(lr.Trace, &doc); err != nil {
		t.Fatal(err)
	}

	// Root: the request span whose span ID is the breakdown's request ID.
	var reqSpan, flushSpan *chainEvent
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		if ev.Ph != "X" || ev.PID != telemetry.PIDServe {
			continue
		}
		if span, ok := argInt(*ev, telemetry.ArgSpan); ok {
			if ev.Name == "request" && span == int64(lr.Breakdown.RequestID) {
				reqSpan = ev
			}
			if ev.Name == "flush" {
				flushSpan = ev
			}
		}
	}
	if reqSpan == nil {
		t.Fatalf("no request span with span ID %d in the trace", lr.Breakdown.RequestID)
	}
	if parent, _ := argInt(*reqSpan, telemetry.ArgParent); parent != 0 {
		t.Fatalf("request span parent = %d, want 0 (root)", parent)
	}
	flushID, ok := argInt(*reqSpan, "flush")
	if !ok || flushID == 0 {
		t.Fatal("request span carries no flush linkage")
	}

	// Middle link: the flush span, child of the traced request.
	if flushSpan == nil {
		t.Fatal("no flush span in the trace")
	}
	if span, _ := argInt(*flushSpan, telemetry.ArgSpan); span != flushID {
		t.Fatalf("flush span ID = %d, want %d (the request's flush arg)", span, flushID)
	}
	if parent, _ := argInt(*flushSpan, telemetry.ArgParent); parent != int64(lr.Breakdown.RequestID) {
		t.Fatalf("flush span parent = %d, want request %d", parent, lr.Breakdown.RequestID)
	}

	// Leaves: every hardware batch span parents under the flush.
	hwBatches := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name != "hw_batch" {
			continue
		}
		hwBatches++
		if parent, _ := argInt(ev, telemetry.ArgParent); parent != flushID {
			t.Fatalf("hw_batch span parent = %d, want flush %d", parent, flushID)
		}
		if span, _ := argInt(ev, telemetry.ArgSpan); span == 0 {
			t.Fatal("hw_batch span has no span ID")
		}
	}
	if hwBatches == 0 {
		t.Fatal("no hw_batch spans in the trace")
	}
}

// TestDebugTraceSpanChainFleet walks the same chain through the sharded
// stack: request -> flush -> shard lookups and rnet switch combines, all
// parenting under the flush span.
func TestDebugTraceSpanChainFleet(t *testing.T) {
	fleet, err := fafnir.NewFleet(fafnir.FleetConfig{
		Shards: 4, RanksPerShard: 8, Rows: 1 << 14, Seed: 1,
		Rnet: fafnir.RnetConfig{Radix: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, fleet, serve.Config{})

	lr := debugLookup(t, ts.URL)
	if lr.Breakdown == nil || len(lr.Trace) == 0 {
		t.Fatal("debug=trace response lacks breakdown or trace")
	}
	var doc struct {
		TraceEvents []chainEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(lr.Trace, &doc); err != nil {
		t.Fatal(err)
	}
	var flushID int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == telemetry.PIDServe && ev.Name == "request" {
			if span, _ := argInt(ev, telemetry.ArgSpan); span == int64(lr.Breakdown.RequestID) {
				flushID, _ = argInt(ev, "flush")
			}
		}
	}
	if flushID == 0 {
		t.Fatal("traced request carries no flush linkage")
	}
	// Shard lookups and the combine span parent under the flush; the rnet
	// switch spans parent under the combine — one chain, one level deeper.
	var combineID int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "combine" {
			if parent, _ := argInt(ev, telemetry.ArgParent); parent != flushID {
				t.Fatalf("combine parent = %d, want flush %d", parent, flushID)
			}
			combineID, _ = argInt(ev, telemetry.ArgSpan)
		}
	}
	if combineID == 0 {
		t.Fatal("no combine span in the fleet trace")
	}
	shardSpans, switchSpans := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "shard.lookup":
			shardSpans++
			if parent, _ := argInt(ev, telemetry.ArgParent); parent != flushID {
				t.Fatalf("shard.lookup parent = %d, want flush %d", parent, flushID)
			}
		case "switch":
			switchSpans++
			if parent, _ := argInt(ev, telemetry.ArgParent); parent != combineID {
				t.Fatalf("switch parent = %d, want combine %d", parent, combineID)
			}
		}
	}
	if shardSpans == 0 {
		t.Fatal("no shard.lookup spans in the fleet trace")
	}
	if switchSpans == 0 {
		t.Fatal("no rnet switch spans in the fleet trace")
	}
}

// TestBreakdownCyclesSumToTotal pins the attribution invariant on the wire:
// the per-request breakdown's simulated stages sum to the request's total
// simulated cycles exactly, and the host-side stages carry no cycles.
func TestBreakdownCyclesSumToTotal(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	_, ts := newTestServer(t, sys, serve.Config{})

	bd := debugLookup(t, ts.URL).Breakdown
	if bd == nil {
		t.Fatal("no breakdown")
	}
	if bd.TotalCycles == 0 {
		t.Fatal("zero-cycle breakdown")
	}
	if sum := bd.Backend.Cycles + bd.Combine.Cycles + bd.Transfer.Cycles; sum != bd.TotalCycles {
		t.Fatalf("stage cycles sum to %d, total is %d (breakdown %+v)", sum, bd.TotalCycles, bd)
	}
	for name, st := range map[string]serve.StageLatency{
		"queue": bd.Queue, "coalesce": bd.Coalesce, "cache": bd.Cache,
	} {
		if st.Cycles != 0 {
			t.Fatalf("host-side stage %s carries %d simulated cycles", name, st.Cycles)
		}
	}
	if bd.TotalWallUS <= 0 {
		t.Fatal("breakdown carries no wall-clock total")
	}
}

// TestServerStageAndSLOFamilies requires the new observability families on
// /metrics and a live flight recorder on /debug/slo after real traffic.
func TestServerStageAndSLOFamilies(t *testing.T) {
	sys := testSystem(t, fafnir.SystemConfig{})
	_, ts := newTestServer(t, sys, serve.Config{})
	for i := 0; i < 3; i++ {
		if resp, _ := postLookup(t, ts.URL, `{"queries":[[1,2,3],[4,5,6]]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup status %s", resp.Status)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "# TYPE fafnir_serve_stage_seconds histogram") {
		t.Error("/metrics lacks the stage-latency histogram family")
	}
	for _, stage := range []string{"queue", "coalesce", "cache", "backend", "combine", "transfer"} {
		if !strings.Contains(out, `fafnir_serve_stage_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("/metrics lacks stage %q", stage)
		}
	}
	// Backend time is simulated but nonzero; its count must match traffic.
	if strings.Contains(out, `fafnir_serve_stage_seconds_count{stage="backend"} 0`+"\n") {
		t.Error("backend stage histogram stayed empty after lookups")
	}
	for _, lane := range []string{"high", "normal", "low"} {
		if !strings.Contains(out, `fafnir_slo_burn_rate{lane="`+lane+`"}`) {
			t.Errorf("/metrics lacks burn rate for lane %q", lane)
		}
	}

	sresp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap telemetry.SLOSnapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Lanes) != 3 {
		t.Fatalf("flight recorder tracks %d lanes, want 3", len(snap.Lanes))
	}
	var normal *telemetry.LaneSLO
	for i := range snap.Lanes {
		if snap.Lanes[i].Lane == "normal" {
			normal = &snap.Lanes[i]
		}
	}
	if normal == nil || normal.Good+normal.Bad == 0 {
		t.Fatalf("normal lane recorded no traffic: %+v", snap.Lanes)
	}
	if len(snap.Slowest) == 0 {
		t.Fatal("flight recorder kept no slowest requests")
	}
	// The slowest ring carries the request's breakdown as detail.
	if snap.Slowest[0].Detail == nil {
		t.Fatal("slowest record carries no detail")
	}
}

// TestFlightHolderWearsStageLabel pins the profile seam: while the backend
// stage runs, the goroutine holding the flight — the waiter flying its own
// batch — carries the pprof label stage=backend, the Breakdown column's
// name, so a CPU profile slices by the same names. Once the flight lands it
// wears its own request's labels again.
func TestFlightHolderWearsStageLabel(t *testing.T) {
	f := newFake()
	var during bytes.Buffer
	f.fail = func(embedding.Batch) error {
		return pprof.Lookup("goroutine").WriteTo(&during, 1)
	}
	co, err := serve.NewCoalescer(serve.Config{}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close(context.Background())
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("caller", "holder-test"))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(context.Background())
	if _, err := co.Submit(ctx, serve.Request{Op: tensor.OpSum, Queries: []embedding.Query{query(1)}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(during.String(), `"stage":"backend"`) {
		t.Fatalf("no goroutine labelled stage=backend during the backend call:\n%s", during.String())
	}
	var after bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&after, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(after.String(), `"stage":`) || !strings.Contains(after.String(), `"caller":"holder-test"`) {
		t.Fatalf("after its flight the holder wears other labels than its request's own:\n%s", after.String())
	}
}
