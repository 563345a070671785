package runctl

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDelay pins the capped doubling schedule, the defaults and
// the jitter bounds.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := (Backoff{}).Delay(1, nil); got != 10*time.Millisecond {
		t.Errorf("default first delay = %v, want 10ms", got)
	}
	if got := (Backoff{}).Delay(100, nil); got != 2*time.Second {
		t.Errorf("default cap = %v, want 2s", got)
	}
	j := Backoff{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if d := j.Delay(1, rng); d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%% of 100ms", d)
		}
	}
}
