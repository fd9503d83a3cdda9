package serve

import (
	"io"
	"sync"
	"time"

	"fafnir/internal/cache"
	"fafnir/internal/header"
)

// ManualClock is the test clock: time moves only when a test advances it,
// and timers fire from Advance. It is the one way to run the serving layer
// off wall time, and it exists only in the package's tests.
type ManualClock struct {
	mu     sync.Mutex
	armed  *sync.Cond // signalled whenever a timer is armed
	now    time.Time
	timers []*manualTimer
}

type manualTimer struct {
	at    time.Time
	fired chan time.Time
}

// NewManualClock starts a clock at a fixed instant.
func NewManualClock() *ManualClock {
	m := &ManualClock{now: time.Date(2021, 2, 27, 0, 0, 0, 0, time.UTC)}
	m.armed = sync.NewCond(&m.mu)
	return m
}

func (m *ManualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *ManualClock) NewTimer(d time.Duration) (<-chan time.Time, func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{at: m.now.Add(d), fired: make(chan time.Time, 1)}
	m.timers = append(m.timers, t)
	m.armed.Broadcast()
	return t.fired, func() { m.drop(t) }
}

func (m *ManualClock) drop(t *manualTimer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, o := range m.timers {
		if o == t {
			m.timers = append(m.timers[:i], m.timers[i+1:]...)
			return
		}
	}
}

// Advance moves the clock forward by d and fires every timer that came due.
func (m *ManualClock) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	pending := m.timers[:0]
	for _, t := range m.timers {
		if t.at.After(m.now) {
			pending = append(pending, t)
			continue
		}
		t.fired <- m.now
	}
	m.timers = pending
}

// AwaitTimer blocks until a timer is armed and reports when it is due.
func (m *ManualClock) AwaitTimer() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.timers) == 0 {
		m.armed.Wait()
	}
	return m.timers[0].at
}

// The serving layer's fixed settings, for tests that drive them.
const (
	DeadlineSlack     = deadlineSlack
	MaxRequestBatches = maxRequestBatches
)

// NewCoalescerAt is NewCoalescer on a manual clock.
func NewCoalescerAt(cfg Config, be Backend, m *Metrics, clk *ManualClock) (*Coalescer, error) {
	return newCoalescer(cfg, be, m, clk)
}

// NewAt is New on a manual clock.
func NewAt(sys System, cfg Config, clk *ManualClock) (*Server, error) {
	return newServer(sys, cfg, clk)
}

// CacheRingStats sums the cache rings' own consultation counters. Call it
// only while the flusher is idle.
func (c *Coalescer) CacheRingStats() (hits, misses uint64) {
	for _, ca := range c.caches {
		st := ca.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// CacheResident reports whether row idx is in the cache, without touching
// the CLOCK state. Call it only while the flusher is idle.
func (c *Coalescer) CacheResident(idx header.Index) bool {
	return c.caches[c.shardOf(idx)].Contains(cache.Key{Index: idx})
}

// DecodeLookup runs the POST /v1/lookup body path without the HTTP layer.
func (s *Server) DecodeLookup(body io.Reader) (Request, time.Duration, error) {
	return s.decodeLookup(body)
}

// ReplyEncoder is the lookup handler's 200-body encoder.
type ReplyEncoder = replyEncoder

// NewReplyEncoder returns an encoder outside the handler's pool.
func NewReplyEncoder() *ReplyEncoder { return newReplyEncoder() }

// Encode renders resp as the lookup handler's 200 body. The bytes are the
// encoder's own buffer, valid until its next Encode.
func (e *replyEncoder) Encode(resp *LookupResponse) ([]byte, error) {
	err := e.encode(resp)
	return e.buf, err
}
