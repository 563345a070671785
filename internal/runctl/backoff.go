package runctl

import (
	"math/rand"
	"time"
)

// Backoff shapes the delay between attempts: capped exponential with
// deterministic seeded jitter, so a whole retry schedule is
// reproducible from one integer (the same discipline FaultPlan uses for
// fault schedules). The supervision retry loop, the circuit breakers'
// cooldowns and the cluster health prober all use it.
type Backoff struct {
	Base   time.Duration // first delay; default 10ms
	Max    time.Duration // cap; default 2s
	Factor float64       // growth per attempt; default 2
	Jitter float64       // ± fraction of the delay, at most 1; default 0 (none)
	Seed   int64         // seed for the PRNG a caller passes to Delay
}

// Delay returns the wait before attempt number n (1-based): Base grown
// by Factor n-1 times, capped at Max, then spread by ±Jitter with one
// draw from rng. rng may be nil when Jitter is 0.
func (b Backoff) Delay(n int, rng *rand.Rand) time.Duration {
	base, max, factor := b.Base, b.Max, b.Factor
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if factor < 1 {
		factor = 2
	}
	d := float64(base)
	for i := 1; i < n; i++ {
		d *= factor
		if d >= float64(max) {
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d *= 1 + j*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}
