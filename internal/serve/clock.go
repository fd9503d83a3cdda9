package serve

import "time"

// clock is the serving layer's one source of wall time: every enqueue stamp,
// seam stamp, linger timer, handler latency and SLO window reads it, so a
// test that substitutes a manual clock owns the whole schedule. Production
// code always runs on realClock; the manual implementation lives in the
// package's tests.
type clock interface {
	Now() time.Time
	// NewTimer returns a channel that receives once d has elapsed and a
	// stop function releasing the timer early.
	NewTimer(d time.Duration) (fired <-chan time.Time, stop func())
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}
