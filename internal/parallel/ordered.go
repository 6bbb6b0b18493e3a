package parallel

import (
	"context"
	"sync"
)

// OrderedEach runs produce(i) for every i in [0, n) on at most workers
// goroutines and delivers each result to consume(i, v) in strict index
// order on the calling goroutine — the index-ordered merge of the
// determinism discipline, generalized to streaming results. It is
// OrderedStream over the indices [0, n); see there for the window,
// error and cancellation rules.
func OrderedEach[T any](ctx context.Context, n, workers int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if workers > n {
		workers = n
	}
	type indexed struct {
		i int
		v T
	}
	i := 0
	next := func() (int, bool, error) {
		if i >= n {
			return 0, false, nil
		}
		i++
		return i - 1, true, nil
	}
	return OrderedStream(ctx, workers, next,
		func(i int) (indexed, error) {
			v, err := produce(i)
			return indexed{i, v}, err
		},
		func(r indexed) error { return consume(r.i, r.v) })
}

// OrderedStream is the ordered merge over a source of unknown length.
// next yields the units one at a time (false once the source is
// exhausted) and always runs on one goroutine; produce runs on at most
// workers goroutines; consume receives the results in the order next
// yielded their units, on the calling goroutine.
//
// The in-flight window is bounded by the worker count: next is called
// only when fewer than `workers` yielded units are still producing or
// waiting for delivery (the one being consumed does not count), so
// memory stays O(workers · unit size) however long the source is. A
// slow unit stalls delivery of the ones after it (order is strict)
// and, once the window fills, stalls next too.
//
// produce must share nothing mutable with sibling units; consume runs
// only on the calling goroutine, so it may touch unsynchronized state
// such as an io.Writer-backed sink. An error from next takes the place
// of the unit it failed to yield: it is returned once every earlier
// unit is consumed. The first error — from next, produce or consume,
// in unit order — stops new work; units already running finish and
// are discarded. With workers <= 1 the loop runs serially on the
// calling goroutine: next, produce, consume, next, ...
func OrderedStream[U, T any](ctx context.Context, workers int, next func() (U, bool, error), produce func(U) (T, error), consume func(T) error) error {
	if workers <= 1 {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			u, ok, err := next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			v, err := produce(u)
			if err != nil {
				return err
			}
			if err := consume(v); err != nil {
				return err
			}
		}
	}

	type result struct {
		v   T
		err error
	}
	// The dispatcher queues one buffered slot per unit, in unit order:
	// a producer finishing out of order parks its result in its slot
	// without blocking, and the consumer below drains the slots in
	// queue order.
	queue := make(chan chan result, workers)

	var wg sync.WaitGroup
	// Producers park results in buffered slots and never block, so
	// waiting for them cannot deadlock; cancel (deferred after, hence
	// run first) unblocks the dispatcher beforehand.
	defer wg.Wait()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The window semaphore: a token is taken before each call to next
	// and released when that unit's result is delivered, before it is
	// consumed, bounding the units yielded and not yet delivered to
	// `workers` — and so the queue never blocks. Consuming one result
	// overlaps with producing the next `workers`.
	window := make(chan struct{}, workers)
	// The dispatcher counts as a unit of wg too: its wg.Add calls then
	// always happen while the counter is positive, never racing the
	// deferred wg.Wait.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for {
			select {
			case window <- struct{}{}:
			case <-cctx.Done():
				return
			}
			u, ok, err := next()
			if !ok && err == nil {
				return
			}
			slot := make(chan result, 1)
			queue <- slot
			if err != nil {
				slot <- result{err: err}
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := produce(u)
				slot <- result{v: v, err: err}
			}()
		}
	}()

	for slot := range queue {
		var r result
		select {
		case r = <-slot:
		case <-cctx.Done():
			return cctx.Err()
		}
		<-window
		if r.err != nil {
			return r.err
		}
		if err := consume(r.v); err != nil {
			return err
		}
	}
	return ctx.Err()
}
