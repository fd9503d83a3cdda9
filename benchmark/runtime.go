package main

import (
	"runtime"
	"syscall"
	"time"
)

// runtimeMeter accumulates what the Go runtime did while one workload's
// rounds ran: allocation, collection, and processor time.
type runtimeMeter struct {
	ops             int
	wall            time.Duration
	cpu             time.Duration
	mallocs, bytes  uint64
	gcPause         time.Duration
	gcCycles        uint32
	heapSys         uint64
	leakedGoroutine int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs f, which performs the workload's rounds, and adds what the
// runtime did meanwhile. Only this workload runs during f.
func (m *runtimeMeter) measure(f func() int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	m.ops += f()
	m.wall += time.Since(t0)
	m.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	m.gcCycles += after.NumGC - before.NumGC
	m.heapSys = max(m.heapSys, after.HeapSys)
}

func (m *runtimeMeter) report(out metrics) {
	ops, wall := float64(m.ops), m.wall.Seconds()
	out["runtime.allocs_per_op"] = ratio(float64(m.mallocs), ops)
	out["runtime.alloc_kb_per_op"] = ratio(float64(m.bytes)/1024, ops)
	out["runtime.gc_pause_ms_per_s"] = ratio(float64(m.gcPause)/float64(time.Millisecond), wall)
	out["runtime.gc_cycles_per_s"] = ratio(float64(m.gcCycles), wall)
	out["runtime.peak_heap_mb"] = float64(m.heapSys) / (1 << 20)
	out["runtime.goroutines_leaked"] = float64(m.leakedGoroutine)
	out["runtime.cpu_s_per_wall_s"] = ratio(m.cpu.Seconds(), wall)
}
