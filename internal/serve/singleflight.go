package serve

import (
	"context"
	"sync"

	"ptx/internal/runctl"
)

// Group deduplicates identical in-flight calls: while the call for a
// key (the leader) runs, later callers for the same key (followers)
// wait for its result instead of repeating the work, so a thundering
// herd on one key costs one execution. The server shares one publish
// run per (spec, db, options); the cluster coordinator shares one
// routed upstream response per request body. The zero value is ready
// to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

type call[T any] struct {
	done chan struct{} // closed when the leader finishes
	val  T
	err  error
}

// Do runs fn for key, or waits for the in-flight call of the same key.
// shared reports whether this caller was a follower. A follower whose
// ctx expires stops waiting with a typed *runctl.ErrCanceled; the
// leader's call is unaffected.
func (g *Group[T]) Do(ctx context.Context, key string, fn func() (T, error)) (v T, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, &runctl.ErrCanceled{Cause: ctx.Err()}
		}
	}
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	c := &call[T]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
