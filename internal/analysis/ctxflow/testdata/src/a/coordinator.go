// Fixture: a coordinator-shaped library that conjures its own root
// context for its prober — the detachment bug this analyzer exists
// for: the caller's signal context can no longer stop the loop.
package a

import (
	"context"
	"time"
)

type coordinator struct {
	cancel context.CancelFunc
}

func newDetachedCoordinator() *coordinator {
	ctx, cancel := context.WithCancel(context.Background()) // want `context\.Background\(\) in library code detaches from the caller's deadline`
	c := &coordinator{cancel: cancel}
	go c.probeLoop(ctx)
	return c
}

func (c *coordinator) probeLoop(ctx context.Context) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
