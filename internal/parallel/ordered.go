package parallel

import (
	"context"
	"sync"
)

// OrderedEach runs produce(i) for every i in [0, n) on at most workers
// goroutines and delivers each result to consume(i, v) in strict index
// order on the calling goroutine — the index-ordered merge of the
// determinism discipline, generalized to streaming results.
//
// The in-flight window is bounded by the worker count: at most
// `workers` results exist at once (produced or producing, not yet
// consumed), so memory stays O(workers · result size) no matter how
// large n is. A slow unit i stalls delivery of i+1.. (order is strict)
// and, once the window fills, stalls new production too.
//
// produce must treat its index as the unit's identity (derive any
// randomness from it, share nothing mutable with sibling units);
// consume runs only on the calling goroutine, so it may touch
// unsynchronized state such as an io.Writer-backed sink. The first
// error — from produce or consume, in index order — stops new work
// from being issued; units already running finish and are discarded.
// With workers <= 1 the loop runs serially: produce(i), consume(i),
// produce(i+1), ...
func OrderedEach[T any](ctx context.Context, n, workers int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := produce(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type unit struct {
		v   T
		err error
	}
	// One buffered slot per unit: a producer finishing out of order
	// parks its result without blocking, and the consumer below reads
	// slots strictly in index order. Only `workers` slots are ever
	// in flight at once, so the slice of channels is the only O(n)
	// allocation.
	slots := make([]chan unit, n)
	for i := range slots {
		slots[i] = make(chan unit, 1)
	}

	var wg sync.WaitGroup
	// Producers park results in buffered slots and never block, so
	// waiting for them cannot deadlock; cancel (deferred after, hence
	// run first) unblocks the dispatcher beforehand.
	defer wg.Wait()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The window semaphore: a token is taken per dispatched unit and
	// released only when its result is consumed, bounding in-flight
	// results to `workers`.
	window := make(chan struct{}, workers)
	// The dispatcher counts as a unit of wg too: its wg.Add calls then
	// always happen while the counter is positive, never racing the
	// deferred wg.Wait.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			select {
			case window <- struct{}{}:
			case <-cctx.Done():
				return
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := produce(i)
				slots[i] <- unit{v: v, err: err}
			}(i)
		}
	}()

	for i := 0; i < n; i++ {
		var u unit
		select {
		case u = <-slots[i]:
		case <-cctx.Done():
			return cctx.Err()
		}
		<-window
		if u.err != nil {
			return u.err
		}
		if err := consume(i, u.v); err != nil {
			return err
		}
	}
	return ctx.Err()
}
