// Fixture: broken prober shapes — a probe loop with no ctx case and
// no channel, spawned inline and as a named method, i.e. the leaks a
// long-lived background poller can fall into.
package a

import (
	"sync"
	"time"
)

type prober struct {
	mu    sync.Mutex
	depth map[string]int
}

func (p *prober) probeOne(url string) {
	p.mu.Lock()
	p.depth[url]++
	p.mu.Unlock()
}

// A prober loop paced only by time.Sleep can never be stopped: no
// ctx case, no channel — it outlives every shutdown path. (A ticker
// range would at least be releasable by a close; a sleep loop is
// not.)
func spawnSleepingProber(p *prober, urls []string) {
	go func() { // want `goroutine has no reachable stop signal`
		for {
			for _, u := range urls {
				p.probeOne(u)
			}
			time.Sleep(time.Second)
		}
	}()
}

// pollForever is the named-target variant: the leak is in the method
// body, carried to the go statement through the call graph.
func (p *prober) pollForever(urls []string) {
	for {
		for _, u := range urls {
			p.probeOne(u)
		}
		time.Sleep(time.Second)
	}
}

func spawnNamedProber(p *prober, urls []string) {
	go p.pollForever(urls) // want `goroutine pollForever has no reachable stop signal`
}
