// Fixture: a coordinator's goroutine patterns — a prober loop
// launched as a named method goroutine (ticker + ctx.Done select,
// done channel closed on exit so stop can join), and a stealer-style
// probe fan-out joined through a WaitGroup. These are standalone
// shapes of a long-lived background service; the analyzer must keep
// accepting them.
package clean

import (
	"context"
	"sync"
	"time"
)

type coordinator struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	depth map[string]int
}

func newCoordinator(ctx context.Context, replicas []string) *coordinator {
	ctx, cancel := context.WithCancel(ctx)
	c := &coordinator{cancel: cancel, done: make(chan struct{}), depth: map[string]int{}}
	for _, r := range replicas {
		c.depth[r] = 0
	}
	// Named method target: the call graph must see the ctx.Done case
	// and the close(c.done) inside probeLoop.
	go c.probeLoop(ctx)
	return c
}

// probeLoop is the prober shape: periodic work driven by a ticker,
// preempted by ctx, with a done channel closed on the way out.
func (c *coordinator) probeLoop(ctx context.Context) {
	defer close(c.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.probeAll(ctx)
		}
	}
}

func (c *coordinator) probeAll(ctx context.Context) {
	c.mu.Lock()
	urls := make([]string, 0, len(c.depth))
	for u := range c.depth {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	// Fan the probes out; the WaitGroup join makes each goroutine's
	// exit observable, and the probe itself checks ctx.
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.probeOne(ctx, u)
		}()
	}
	wg.Wait()
}

func (c *coordinator) probeOne(ctx context.Context, url string) {
	if ctx.Err() != nil {
		return
	}
	c.mu.Lock()
	c.depth[url]++
	c.mu.Unlock()
}

// leastLoaded is the stealer's read side: pure map scan under the
// mutex, no goroutines — here so the fixture exercises the pattern of
// loop-free helpers called from goroutine bodies.
func (c *coordinator) leastLoaded() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestDepth := "", int(^uint(0)>>1)
	for u, d := range c.depth {
		if d < bestDepth || (d == bestDepth && u < best) {
			best, bestDepth = u, d
		}
	}
	return best
}

func (c *coordinator) stop() {
	c.cancel()
	<-c.done
}
