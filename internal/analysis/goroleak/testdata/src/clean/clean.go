// Fixture: stoppable goroutines — ctx-driven loops, channel-released
// workers, WaitGroup-joined work, close-signalled completions, and
// one-shot bodies that stop by finishing.
package clean

import (
	"context"
	"sync"
	"time"
)

type job struct{ id int }

func ctxLoop(ctx context.Context, tick *time.Ticker) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
}

func chanWorker(queue chan *job) {
	go func() {
		for j := range queue {
			_ = j.id
		}
	}()
}

func joined(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}

func closer(done chan struct{}, work func()) {
	go func() {
		work()
		close(done)
	}()
}

func resultSender(results chan int, compute func() int) {
	go func() {
		results <- compute()
	}()
}

// One-shot straight-line body: stops by finishing.
func oneShot(log func(string)) {
	go log("started")
}

// Speculative-scan shape (launch-then-join): the goroutine owns its
// state until the defer-closed done channel releases it, the body is
// a finite replay loop with early-return on error, and the caller
// always joins on done — the goroutine stops by finishing.
type specTask struct {
	done    chan struct{}
	payload int
	err     error
}

func launchSpeculative(ops []int, replay func(int) error, scan func() (int, error)) *specTask {
	t := &specTask{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		for _, op := range ops {
			if err := replay(op); err != nil {
				t.err = err
				return
			}
		}
		t.payload, t.err = scan()
	}()
	return t
}

func joinSpeculative(t *specTask) (int, error) {
	<-t.done
	return t.payload, t.err
}

// drain has a stop signal (channel range) reachable from the named go
// target through the call graph.
func drain(queue chan *job) {
	for range queue {
	}
}

func spawnDrain(queue chan *job) {
	go drain(queue)
}
