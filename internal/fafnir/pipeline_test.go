package fafnir

import (
	"sort"
	"testing"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/sim"
)

func loadBatches(t *testing.T, n int, rows uint64) []embedding.Batch {
	t.Helper()
	out := make([]embedding.Batch, n)
	for i := range out {
		out[i] = genBatch(t, 16, 16, rows, int64(40+i))
	}
	return out
}

func TestOfferedLoadEmptyRejected(t *testing.T) {
	e, store, layout, _ := timedFixture(t, 32)
	if _, err := e.OfferedLoad(store, layout, dram.DDR4(), nil, 100); err == nil {
		t.Fatal("empty offered load accepted")
	}
}

func TestOfferedLoadLightVsHeavy(t *testing.T) {
	e, store, layout, _ := timedFixture(t, 32)
	batches := loadBatches(t, 12, layout.TotalRows())

	// Find the rough service time first.
	probe, err := e.OfferedLoad(store, layout, dram.DDR4(), batches[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	svc := sim.Cycle(probe.AvgService)

	light, err := e.OfferedLoad(store, layout, dram.DDR4(), batches, 4*svc)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := e.OfferedLoad(store, layout, dram.DDR4(), batches, svc/4)
	if err != nil {
		t.Fatal(err)
	}

	// Light load: no queueing — latency ~= service, queue depth 1.
	if light.MaxQueueDepth > 1 {
		t.Fatalf("light load queued: depth %d", light.MaxQueueDepth)
	}
	if light.AvgLatency > 1.5*light.AvgService {
		t.Fatalf("light-load latency %.0f far above service %.0f", light.AvgLatency, light.AvgService)
	}
	// Heavy load: queue builds, latency blows up, utilization ~1.
	if heavy.MaxQueueDepth <= 1 {
		t.Fatalf("heavy load never queued")
	}
	if heavy.AvgLatency <= 2*heavy.AvgService {
		t.Fatalf("heavy-load latency %.0f did not inflate over service %.0f", heavy.AvgLatency, heavy.AvgService)
	}
	if heavy.Utilization < 0.8 {
		t.Fatalf("heavy-load utilization %.2f", heavy.Utilization)
	}
	if light.Utilization >= heavy.Utilization {
		t.Fatalf("utilization ordering wrong: %.2f vs %.2f", light.Utilization, heavy.Utilization)
	}
	// Throughput at saturation beats throughput under light load.
	if heavy.QueriesPerMillisecond <= light.QueriesPerMillisecond {
		t.Fatalf("saturated throughput %.1f not above light %.1f",
			heavy.QueriesPerMillisecond, light.QueriesPerMillisecond)
	}
}

func TestOfferedLoadDeterministic(t *testing.T) {
	e, store, layout, _ := timedFixture(t, 32)
	batches := loadBatches(t, 6, layout.TotalRows())
	a, err := e.OfferedLoad(store, layout, dram.DDR4(), batches, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.OfferedLoad(store, layout, dram.DDR4(), batches, 500)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.AvgLatency != b.AvgLatency {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// referenceLoad replays the queue the way the deleted event-queue version
// did: a time-sorted event list where arrivals fire before completions on the
// same cycle, one batch in service at a time.
func referenceLoad(services []sim.Cycle, interval sim.Cycle) PipelineResult {
	type event struct {
		at         sim.Cycle
		completion bool
		job        int
	}
	var events []event
	for i := range services {
		events = append(events, event{at: sim.Cycle(i) * interval, job: i})
	}
	var ref PipelineResult
	var queue []int
	var latSum float64
	var svcSum sim.Cycle
	busy := false
	for len(events) > 0 {
		sort.SliceStable(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return !events[a].completion && events[b].completion
		})
		ev := events[0]
		events = events[1:]
		if ev.completion {
			busy = false
			lat := float64(ev.at - sim.Cycle(ev.job)*interval)
			latSum += lat
			ref.MaxLatency = max(ref.MaxLatency, lat)
			ref.Makespan = ev.at
		} else {
			queue = append(queue, ev.job)
			ref.MaxQueueDepth = max(ref.MaxQueueDepth, len(queue))
		}
		if !busy && len(queue) > 0 {
			busy = true
			events = append(events, event{at: ev.at + services[queue[0]], completion: true, job: queue[0]})
			svcSum += services[queue[0]]
			queue = queue[1:]
		}
	}
	ref.AvgLatency = latSum / float64(len(services))
	ref.AvgService = float64(svcSum) / float64(len(services))
	ref.Utilization = float64(svcSum) / float64(ref.Makespan)
	return ref
}

// TestLoadMatchesEventReference checks the closed-form queue against the
// event-list reference across the regimes that differ in tie handling:
// everything at once (interval 0), saturated, arrivals landing exactly on a
// completion (interval dividing the service time), and idle.
func TestLoadMatchesEventReference(t *testing.T) {
	const svc = 10
	even := make([]sim.Cycle, 12)
	for i := range even {
		even[i] = svc
	}
	uneven := []sim.Cycle{7, 3, 12, 1, 10, 9, 11, 20, 10, 2, 8, 30, 1, 1}
	for name, services := range map[string][]sim.Cycle{"even": even, "uneven": uneven, "single": {svc}} {
		for _, interval := range []sim.Cycle{0, 1, svc / 2, svc - 1, svc, svc + 1, 4 * svc} {
			var got PipelineResult
			got.load(services, interval)
			if want := referenceLoad(services, interval); got != want {
				t.Errorf("%s services, interval %d:\n got %+v\nwant %+v", name, interval, got, want)
			}
		}
	}
	// Batch 2 arrives at cycle 10, the cycle batch 0 completes and batch 1
	// starts service: the arrival is ordered first, so batch 1 still counts.
	var tie PipelineResult
	tie.load(even[:3], svc/2)
	if tie.MaxQueueDepth != 2 {
		t.Errorf("arrival on its predecessor's start cycle: depth %d, want 2 (predecessor still counted)", tie.MaxQueueDepth)
	}
	var burst PipelineResult
	burst.load(even, 0)
	if burst.MaxQueueDepth != len(even)-1 {
		t.Errorf("interval 0: depth %d, want %d (everything queues behind batch 0)", burst.MaxQueueDepth, len(even)-1)
	}
}
