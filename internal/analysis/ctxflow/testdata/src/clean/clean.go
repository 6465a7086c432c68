// Fixture: the sanctioned shape — contexts flow in as parameters and
// derive via WithCancel/WithTimeout, never from Background/TODO.
package clean

import (
	"context"
	"time"
)

func run(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return work(ctx)
}

func work(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Speculative-prefetch shape: the scan goroutine receives the
// caller's own ctx, so cancelling the caller reaches the in-flight
// scan and the join cannot deadlock on it.
func prefetch(ctx context.Context, scan func(context.Context) (int, error)) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := scan(ctx)
		done <- err
	}()
	return done
}
