// Fixture: a coordinator's cancellation shape — the root context
// flows in from the caller (a daemon's signal context), the prober
// derives a cancellable child, and stop cancels it then joins.
// No Background()/TODO() anywhere in the library path.
package clean

import (
	"context"
	"time"
)

type coordinator struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func newCoordinator(ctx context.Context) *coordinator {
	ctx, cancel := context.WithCancel(ctx)
	c := &coordinator{cancel: cancel, done: make(chan struct{})}
	go c.probeLoop(ctx)
	return c
}

func (c *coordinator) probeLoop(ctx context.Context) {
	defer close(c.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.probeOne(ctx)
		}
	}
}

// probeOne derives its per-call deadline from the loop's context, the
// way a probe round-trip must: a replica that stops answering costs
// one timeout, never a wedged prober.
func (c *coordinator) probeOne(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	<-pctx.Done()
}

// stop cancels the prober's context and joins its exit; the receive
// is bounded because cancel above releases the loop.
func (c *coordinator) stop() {
	c.cancel()
	<-c.done
}
