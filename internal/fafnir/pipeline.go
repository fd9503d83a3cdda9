package fafnir

import (
	"fmt"

	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	"fafnir/internal/sim"
)

// PipelineResult summarizes a streaming run of many batches through the
// tree under an offered arrival rate (a single-server FIFO queue on top of
// the timing model).
type PipelineResult struct {
	// Batches is the number of batches served.
	Batches int
	// Makespan is the completion time of the last batch (PE cycles).
	Makespan sim.Cycle
	// AvgLatency and MaxLatency are per-batch queueing+service latencies in
	// PE cycles.
	AvgLatency, MaxLatency float64
	// AvgService is the mean service time (no queueing) in PE cycles.
	AvgService float64
	// MaxQueueDepth is the deepest the arrival queue got.
	MaxQueueDepth int
	// Utilization is busy time over makespan (1.0 = saturated).
	Utilization float64
	// QueriesPerMillisecond is the achieved throughput.
	QueriesPerMillisecond float64
}

// OfferedLoad streams the given batches into the engine at a fixed arrival
// interval (PE cycles) and solves the service queue in closed form (see
// load): one batch is in service at a time (the tree's input FIFOs double-
// buffer arrivals), later arrivals wait in the host's dispatch queue. Each
// batch's service time comes from the timing model against an idle memory
// system, so the run behaves like an M/D/1-style queue whose service
// distribution is the simulator itself. The result captures the classic
// latency/throughput curve that bends upward as the interval approaches the
// service time.
func (e *Engine) OfferedLoad(store *embedding.Store, layout Placement, mcfg dram.Config, batches []embedding.Batch, interval sim.Cycle) (*PipelineResult, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("fafnir: no batches offered")
	}
	res := &PipelineResult{Batches: len(batches)}

	// Pre-compute each batch's service time from the timing model.
	services := make([]sim.Cycle, len(batches))
	queries := 0
	for i, b := range batches {
		mem, err := dram.NewSystem(mcfg)
		if err != nil {
			return nil, err
		}
		tr, err := e.TimedLookup(store, layout, mem, b, true)
		if err != nil {
			return nil, err
		}
		services[i] = sim.Max(tr.TotalCycles, 1)
		queries += len(b.Queries)
	}
	res.load(services, interval)
	res.QueriesPerMillisecond = float64(queries) / (sim.Seconds(res.Makespan, e.cfg.ClockMHz) * 1e3)
	return res, nil
}

// load fills in the queueing outcome of batch i arriving at i*interval with
// service time services[i] (each at least one cycle). A single-server FIFO
// with deterministic arrivals needs no event queue: start[i] =
// max(arrival[i], done[i-1]) and done[i] = start[i] + services[i]. Queue depth is sampled at each arrival, counting
// the arrival itself and every earlier batch still waiting; arrivals are
// ordered before completions on the same cycle, so batch j (j > 0) has left
// the queue only once done[j-1] is strictly before the arrival. done is
// monotone, so the oldest waiting batch is a head that only moves forward.
func (r *PipelineResult) load(services []sim.Cycle, interval sim.Cycle) {
	done := make([]sim.Cycle, len(services))
	head := 0
	var latencySum float64
	var serviceSum sim.Cycle
	for i, svc := range services {
		arrival := sim.Cycle(i) * interval
		start := arrival
		if i > 0 {
			start = sim.Max(arrival, done[i-1])
		}
		done[i] = start + svc
		serviceSum += svc
		for head < i && (head == 0 || done[head-1] < arrival) {
			head++
		}
		r.MaxQueueDepth = max(r.MaxQueueDepth, i-head+1)
		lat := float64(done[i] - arrival)
		latencySum += lat
		r.MaxLatency = max(r.MaxLatency, lat)
	}
	r.Makespan = done[len(done)-1]
	r.AvgLatency = latencySum / float64(len(services))
	r.AvgService = float64(serviceSum) / float64(len(services))
	r.Utilization = float64(serviceSum) / float64(r.Makespan)
}
