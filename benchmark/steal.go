package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"time"
)

// On a virtual machine the hypervisor can withhold the processors from the
// guest for a while; Linux counts that time as "steal" in /proc/stat. On the
// 2-core sandbox this benchmark was sized on, steal explains the noise: runs
// with under 1 % of the processor time stolen repeat within a few percent,
// and a run that lost 40 % to a neighbour for its whole length read half the
// throughput. A round measured while the processors were withheld measures
// the host, not the program, so every round and every set-up records its
// steal share, and the reported median is over the calmer half (calmest).

// stolenTime returns the processor time withheld from this machine since
// boot, summed over its processors, and false where that is not reported.
func stolenTime() (time.Duration, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal ...
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * (time.Second / 100), true // USER_HZ is 100
}

// stealMeter measures the share of the machine's processor time that was
// withheld over an interval.
type stealMeter struct {
	start  time.Time
	stolen time.Duration
	ok     bool
}

func startSteal() stealMeter {
	s, ok := stolenTime()
	return stealMeter{time.Now(), s, ok}
}

// share is stolen time over elapsed time x processors; 0 where steal is not
// reported.
func (m stealMeter) share() float64 {
	now, ok := stolenTime()
	if !m.ok || !ok {
		return 0
	}
	return ratio((now - m.stolen).Seconds(), time.Since(m.start).Seconds()*float64(runtime.NumCPU()))
}

// calmest marks the samples to keep given each sample's steal share: the
// calmer half (rounded up), plus any sample that ties with the last of them.
// The choice looks at steal only, never at what the sample measured.
func calmest(stolen []float64) []bool {
	keep := make([]bool, len(stolen))
	if len(stolen) == 0 {
		return keep
	}
	limit := sorted(stolen)[(len(stolen)-1)/2]
	for i, s := range stolen {
		keep[i] = s <= limit
	}
	return keep
}

// calmRounds returns the rounds calmest keeps.
func calmRounds(rs []round) []round {
	stolen := make([]float64, len(rs))
	for i, rd := range rs {
		stolen[i] = rd.stolen
	}
	var kept []round
	for i, ok := range calmest(stolen) {
		if ok {
			kept = append(kept, rs[i])
		}
	}
	return kept
}
