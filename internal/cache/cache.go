// Package cache is the host-side hot-embedding cache of the serving tier: a
// fixed-budget, read-only store of popular embedding rows consulted by the
// coalescer at batch build time, so indices it holds are stripped from the
// hardware batch before DRAM is ever touched and merged back into the pooled
// outputs afterwards.
//
// The cache never invalidates — the embedding store is immutable for the
// lifetime of a serving process — so the only policy decisions are admission
// (every miss is admitted after its batch completes) and eviction. Eviction
// is CLOCK (second chance): entries live in a fixed ring sized by the byte
// budget, a hand sweeps the ring clearing reference bits, and the first
// unreferenced slot is replaced. The hand's start position is seeded, and
// every state transition is a pure function of the (Get, Put) call sequence,
// so two caches built with the same Config and driven with the same sequence
// hold bit-identical contents — the serving layer's determinism contract
// extends across batches.
//
// A cached row is the raw row, whatever pooling operation later reduces it,
// so the serving layer keys entries by index alone; a sharded deployment
// keeps one cache per owning shard. All methods are single-caller
// by design (whichever goroutine holds the coalescer's flight); the cache
// performs no locking.
package cache

import (
	"fmt"
	"math/bits"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// Key identifies one cached row by its global row index. Table and Op do
// not change a raw row: the serving layer leaves both zero (the per-shard
// cache already says which shard owns the row, and one row serves every
// pooling operation). They remain only because the benchmark's cache drill
// still builds a Key with them; ROADMAP item 7 retires them.
type Key struct {
	Table uint32
	Op    uint8
	Index header.Index
}

// Config sizes a cache.
type Config struct {
	// Bytes is the fixed byte budget. The cache holds at most
	// Bytes / slot-size entries, where a slot is the vector payload plus
	// bookkeeping overhead; the budget is never exceeded.
	Bytes int64
	// Dim is the embedding dimensionality of every cached row.
	Dim int
	// Seed positions the CLOCK hand's starting slot, so distinct seeds
	// explore distinct (still deterministic) eviction orders. Zero selects 1.
	Seed uint64
}

// slotOverhead is the per-entry bookkeeping charge beyond the vector payload:
// the key, the ref bit, and the entry's two index cells, rounded up so the
// byte budget stays honest.
const slotOverhead = 64

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("cache: Config.Dim = %d: must be positive", c.Dim)
	case c.Bytes <= 0:
		return fmt.Errorf("cache: Config.Bytes = %d: must be positive", c.Bytes)
	case c.Bytes < c.SlotBytes():
		return fmt.Errorf("cache: Config.Bytes = %d: below one %d-byte entry at Dim %d", c.Bytes, c.SlotBytes(), c.Dim)
	}
	return nil
}

// SlotBytes is what one entry charges against the budget: the vector payload
// plus slotOverhead. Stats.InsertedBytes grows by it per admission.
func (c Config) SlotBytes() int64 { return int64(c.Dim)*4 + slotOverhead }

// Stats are the cache's cumulative counters. Hits and Misses count Get
// calls; Evictions counts entries displaced by CLOCK; InsertedBytes counts
// the slot bytes of every admitted entry (a monotone counter, not the
// resident footprint — see Cache.Bytes for that).
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	InsertedBytes uint64
}

type slot struct {
	key Key
	val tensor.Vector
	ref bool
}

// cell is one entry of the index: a row index and the slot holding it, plus
// one (zero marks an empty cell).
type cell struct {
	idx  header.Index
	slot int32
}

// Cache is a fixed-budget CLOCK cache of embedding rows. Not safe for
// concurrent use; the serving layer drives it from one goroutine at a time,
// the one holding the coalescer's flight.
type Cache struct {
	cfg      Config
	slotSize int64
	slots    []slot
	// index finds an entry by its row index: the cache holds at most one
	// entry per index, so an open-addressing table of cells, probed linearly
	// from the index's home cell, maps an index to its slot. The table has
	// at least twice as many cells as there are slots, and a deletion shifts
	// the cells of its probe run back (unindex), so no tombstones build up.
	index []cell
	shift uint // 32 - log2(len(index)): a hash's top bits are its home cell
	hand  int
	used  int
	stats Stats
}

// New builds an empty cache over the budget.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	size := cfg.SlotBytes()
	capacity := int(cfg.Bytes / size)
	logCells := bits.Len(uint(2*capacity - 1)) // 2*capacity rounded up to a power of two
	return &Cache{
		cfg:      cfg,
		slotSize: size,
		slots:    make([]slot, capacity),
		index:    make([]cell, 1<<logCells),
		shift:    uint(32 - logCells),
		hand:     int(cfg.Seed % uint64(capacity)),
	}, nil
}

// home is idx's first probe cell (Fibonacci hashing).
func (c *Cache) home(idx header.Index) int {
	return int(uint32(idx) * 0x9e3779b9 >> c.shift)
}

// find probes for idx: it returns the cell that holds idx and its slot, or
// the empty cell that ends the probe run and -1.
func (c *Cache) find(idx header.Index) (at, pos int) {
	mask := len(c.index) - 1
	for at = c.home(idx); ; at = (at + 1) & mask {
		switch e := c.index[at]; {
		case e.slot == 0:
			return at, -1
		case e.idx == idx:
			return at, int(e.slot) - 1
		}
	}
}

// unindex empties cell at by backward shift: each later cell of the probe
// run moves into the hole when the hole lies between its home and itself,
// counted around the table's end, so every remaining index stays reachable
// from its home without a gap.
func (c *Cache) unindex(at int) {
	mask := len(c.index) - 1
	for next := (at + 1) & mask; c.index[next].slot != 0; next = (next + 1) & mask {
		if (next-c.home(c.index[next].idx))&mask >= (next-at)&mask {
			c.index[at] = c.index[next]
			at = next
		}
	}
	c.index[at] = cell{}
}

// Get returns the cached row for k, marking it recently used. The returned
// vector is the cache's own storage: callers must treat it as read-only.
func (c *Cache) Get(k Key) (tensor.Vector, bool) {
	_, pos := c.find(k.Index)
	if pos < 0 || c.slots[pos].key != k {
		c.stats.Misses++
		return nil, false
	}
	c.slots[pos].ref = true
	c.stats.Hits++
	return c.slots[pos].val, true
}

// Contains reports whether k is cached without touching the reference bit or
// the hit/miss counters (introspection only).
func (c *Cache) Contains(k Key) bool {
	_, pos := c.find(k.Index)
	return pos >= 0 && c.slots[pos].key == k
}

// Put admits row v under k, evicting via CLOCK when the ring is full. A key
// already present is refreshed (reference bit set) without a second copy,
// and an entry under the same index but another Table or Op is replaced in
// its slot; a vector of the wrong dimension is rejected.
func (c *Cache) Put(k Key, v tensor.Vector) error {
	if len(v) != c.cfg.Dim {
		return fmt.Errorf("cache: row dim %d, cache dim %d", len(v), c.cfg.Dim)
	}
	at, pos := c.find(k.Index)
	switch {
	case pos >= 0 && c.slots[pos].key == k:
		c.slots[pos].ref = true
		return nil
	case pos >= 0:
	case c.used < len(c.slots):
		// Fill phase: slots are occupied in ring order from the seeded hand,
		// so the first eviction sweep starts behind the oldest entry.
		pos = (c.hand + c.used) % len(c.slots)
		c.used++
	default:
		// CLOCK sweep: clear reference bits until an unreferenced slot turns
		// up; every entry gets at most one second chance per sweep, so the
		// loop terminates within two revolutions.
		for c.slots[c.hand].ref {
			c.slots[c.hand].ref = false
			c.hand = (c.hand + 1) % len(c.slots)
		}
		pos = c.hand
		c.hand = (c.hand + 1) % len(c.slots)
		victim, _ := c.find(c.slots[pos].key.Index)
		c.unindex(victim)
		// The shift may have moved the cell k's probe ended at.
		at, _ = c.find(k.Index)
		c.stats.Evictions++
	}
	s := &c.slots[pos]
	if s.val == nil {
		s.val = make(tensor.Vector, c.cfg.Dim)
	}
	copy(s.val, v)
	s.key = k
	// A fresh entry starts referenced: it survives the hand's next pass, the
	// one revolution of grace that separates CLOCK from FIFO.
	s.ref = true
	c.index[at] = cell{idx: k.Index, slot: int32(pos) + 1}
	c.stats.InsertedBytes += uint64(c.slotSize)
	return nil
}

// Len reports the number of resident entries.
func (c *Cache) Len() int { return c.used }

// Capacity reports the entry count the byte budget admits.
func (c *Cache) Capacity() int { return len(c.slots) }

// Bytes reports the resident footprint (occupied slots at full slot charge).
func (c *Cache) Bytes() int64 { return int64(c.used) * c.slotSize }

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// HitRatio reports hits / (hits + misses), zero before any Get.
func (c *Cache) HitRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(total)
}
