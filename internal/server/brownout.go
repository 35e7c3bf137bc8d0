package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/chrec/rat/internal/telemetry"
)

// maxBrownoutLevel is the deepest degradation step. The ladder, from
// docs/TENANCY.md (every step leaves the interactive predict path
// untouched):
//
//	level 1: explore candidate ceiling /4
//	level 2: ceiling /16
//	level 3: ceiling /64, response-cache fill disabled
const maxBrownoutLevel = 3

// The controller's tuning: each brownoutWindow ends with at most one
// level transition; a window whose overload-shed fraction reaches
// brownoutShedFraction steps the level up, and a window ending at
// least brownoutQuiet after the last shed steps it down.
const (
	brownoutWindow       = time.Second
	brownoutShedFraction = 0.05
	brownoutQuiet        = 5 * time.Second
)

// brownoutCeilingShift maps a level to the right-shift applied to the
// server's explore candidate ceiling (1, /4, /16, /64).
var brownoutCeilingShift = [maxBrownoutLevel + 1]uint{0, 2, 4, 6}

// brownout is the overload degradation controller. It watches the
// overload-shed rate (capacity 429s from admission, NOT per-tenant
// quota sheds — a hostile tenant being limited is the system working,
// not the system overloaded) over fixed windows and walks a level
// between 0 (healthy) and maxBrownoutLevel: one step up per window
// whose shed fraction reaches the enter threshold, one step down per
// window that ends a long-enough quiet streak. Hysteresis keeps the
// level from flapping at the threshold.
//
// The current level is visible as the rat_brownout_level gauge, in
// /v1/status, and in the raised/lowered transition counters.
type brownout struct {
	window time.Duration // brownoutWindow; tests widen it to hold a forced level

	level atomic.Int32

	mu       sync.Mutex
	winStart time.Time
	served   int64
	shed     int64
	lastShed time.Time

	levelG  *telemetry.Gauge
	raised  *telemetry.Counter
	lowered *telemetry.Counter
}

// newBrownout builds the controller at level 0.
func newBrownout(reg *telemetry.Registry) *brownout {
	return &brownout{
		window:  brownoutWindow,
		levelG:  reg.Gauge("rat_brownout_level"),
		raised:  reg.Counter("rat_brownout_raised_total"),
		lowered: reg.Counter("rat_brownout_lowered_total"),
	}
}

// Level reports the current degradation level (lock-free; the hot
// path reads it per request).
func (b *brownout) Level() int32 {
	if b == nil {
		return 0
	}
	return b.level.Load()
}

// observe records one API-request outcome at time now: shed is true
// for an overload rejection (admission capacity, not tenant quota).
// Window rollover and level transitions happen inline — the
// controller has no goroutine of its own, so an idle server cannot
// change level spuriously and tests drive it with fabricated clocks.
func (b *brownout) observe(now time.Time, shed bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.winStart.IsZero() {
		b.winStart = now
	}
	if shed {
		b.shed++
		b.lastShed = now
	} else {
		b.served++
	}
	if now.Sub(b.winStart) < b.window {
		b.mu.Unlock()
		return
	}
	// Window rollover: decide a transition, then reset the counts.
	total := b.served + b.shed
	frac := float64(b.shed) / float64(total)
	level := b.level.Load()
	next := level
	switch {
	case b.shed > 0 && frac >= brownoutShedFraction && level < maxBrownoutLevel:
		next = level + 1
	case b.shed == 0 && level > 0 &&
		(b.lastShed.IsZero() || now.Sub(b.lastShed) >= brownoutQuiet):
		next = level - 1
	}
	b.served, b.shed = 0, 0
	b.winStart = now
	b.mu.Unlock()

	if next != level {
		b.setLevel(level, next)
	}
}

// setLevel publishes a transition.
func (b *brownout) setLevel(from, to int32) {
	if !b.level.CompareAndSwap(from, to) {
		return // lost a race with another rollover; its transition stands
	}
	b.levelG.Set(float64(to))
	if to > from {
		b.raised.Inc()
	} else {
		b.lowered.Inc()
	}
}

// exploreCeiling returns the candidate ceiling after brownout
// degradation: the configured ceiling stepped down /4, /16, /64 at
// levels 1-3, never below 1.
func (s *Server) exploreCeiling() uint64 {
	level := s.brownout.Level()
	if level <= 0 {
		return s.cfg.MaxExploreCandidates
	}
	if level > maxBrownoutLevel {
		level = maxBrownoutLevel
	}
	c := s.cfg.MaxExploreCandidates >> brownoutCeilingShift[level]
	if c < 1 {
		c = 1
	}
	return c
}

// cacheFillAllowed reports whether response-cache fill is enabled at
// the current brownout level. Serving existing cache hits is always
// allowed — only populating the cache with new entries stops, so the
// service sheds the allocation and eviction churn, not the wins it
// already holds.
func (s *Server) cacheFillAllowed() bool {
	return s.brownout.Level() < maxBrownoutLevel
}
