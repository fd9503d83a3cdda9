package dram

import (
	"fmt"
	"strings"
)

// Counters are the access counters a System accumulates. A read or write
// that spans interleave slots counts one Read per piece but one Write per
// call; bank events (Bursts, row outcomes, RefreshDelays) count for both
// directions, the request and byte counters only for their own.
type Counters struct {
	Reads, Bursts, Bytes, BytesToHost uint64
	RowHits, RowMisses, RowConflicts  uint64
	RefreshDelays, FailedRankReads    uint64
	Writes, BytesWritten              uint64
}

// counterFields names every counter once, in render order; Counter, Sub and
// String all walk it.
var counterFields = [...]struct {
	name string
	at   func(*Counters) *uint64
}{
	{"dram.reads", func(c *Counters) *uint64 { return &c.Reads }},
	{"dram.bursts", func(c *Counters) *uint64 { return &c.Bursts }},
	{"dram.bytes", func(c *Counters) *uint64 { return &c.Bytes }},
	{"dram.bytes_to_host", func(c *Counters) *uint64 { return &c.BytesToHost }},
	{"dram.row_hits", func(c *Counters) *uint64 { return &c.RowHits }},
	{"dram.row_misses", func(c *Counters) *uint64 { return &c.RowMisses }},
	{"dram.row_conflicts", func(c *Counters) *uint64 { return &c.RowConflicts }},
	{"dram.refresh_delays", func(c *Counters) *uint64 { return &c.RefreshDelays }},
	{"dram.failed_rank_reads", func(c *Counters) *uint64 { return &c.FailedRankReads }},
	{"dram.writes", func(c *Counters) *uint64 { return &c.Writes }},
	{"dram.bytes_written", func(c *Counters) *uint64 { return &c.BytesWritten }},
}

// Counter returns the counter with the given "dram."-prefixed name, or 0 for
// a name the memory system does not count.
func (c Counters) Counter(name string) uint64 {
	for _, f := range counterFields {
		if f.name == name {
			return *f.at(&c)
		}
	}
	return 0
}

// Sub returns c - o field by field: the footprint of whatever ran between
// two snapshots of one system.
func (c Counters) Sub(o Counters) Counters {
	for _, f := range counterFields {
		*f.at(&c) -= *f.at(&o)
	}
	return c
}

// String renders the non-zero counters, one per line.
func (c Counters) String() string {
	var b strings.Builder
	for _, f := range counterFields {
		if v := *f.at(&c); v != 0 {
			fmt.Fprintf(&b, "%-40s %d\n", f.name, v)
		}
	}
	return b.String()
}
