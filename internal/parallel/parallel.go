// Package parallel is the repository's deterministic fan-out layer: a
// bounded worker pool plus the seeding discipline that keeps every
// parallelized computation bit-identical regardless of worker count or
// goroutine scheduling.
//
// The discipline has two rules:
//
//  1. Every independent unit of work (a trial, a grid cell, a forest
//     member, a candidate attribute) derives its own random stream from
//     (baseSeed, index) via Seed/NewRand — never from a stream shared
//     with its siblings — so the randomness a unit consumes does not
//     depend on which worker runs it or in what order.
//  2. Reductions over unit results are ordered: workers write result i
//     into slot i and the (single-goroutine) reduction folds the slots
//     in index order, so floating-point and tie-breaking behavior match
//     the serial loop exactly.
//
// Under these rules workers=1 and workers=N provably produce the same
// bytes, which the repository's determinism regression tests assert for
// every wired path.
package parallel

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privtree/internal/obs"
)

// EnvWorkers is the environment variable that overrides the default
// worker count when no explicit count is configured.
const EnvWorkers = "PRIVTREE_WORKERS"

// ResolveWorkers resolves a configured worker count: a positive n wins,
// then a positive PRIVTREE_WORKERS environment override, then
// runtime.GOMAXPROCS. The result is always at least 1.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	if v := runtime.GOMAXPROCS(0); v > 1 {
		return v
	}
	return 1
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the first error in index order (not arrival
// order, which would be scheduling-dependent). A non-nil error or a
// context cancellation stops new work from being issued; units already
// running finish. With workers <= 1 the loop runs serially on the
// calling goroutine.
//
// fn must treat its index as the unit's identity: any randomness it
// consumes must be derived from the index (see Seed/NewRand), and it
// must write results only into index-addressed slots it owns.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorker(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the executing worker's pool index
// (in [0, workers)) passed to fn, so units can reuse worker-local
// scratch buffers without synchronization: slot w is only ever touched
// by worker w. The serial path (workers <= 1) always passes worker 0.
//
// Scratch discipline (the determinism contract's third rule): a unit
// may read nothing from its worker slot that a previous unit left
// behind — scratch must be fully overwritten before use — and a unit's
// output must not alias the scratch, so results are identical no
// matter which worker ran which unit.
func ForEachWorker(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	// Observation is scheduling-only: counters, queue-depth samples and
	// per-worker busy spans. It never touches fn's inputs or the order
	// results are reduced in, so enabling a recorder cannot change any
	// computed bytes.
	observing := obs.Enabled()
	if observing {
		obs.Add("parallel.batches", 1)
		obs.Add("parallel.units", int64(n))
		obs.Gauge("parallel.workers", int64(workers))
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sp *obs.Span
			if observing {
				sp = obs.StartSpan("parallel/worker")
				sp.SetWorker(w)
				defer sp.End()
			}
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var start time.Time
				if observing {
					// Queue depth at claim time: units not yet claimed by
					// any worker.
					obs.Gauge("parallel.queue_depth", int64(n-i-1))
					start = time.Now()
				}
				err := fn(w, i)
				if observing {
					obs.Since("parallel.unit_ns", start)
				}
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// minPartLen is the fewest items Parts hands a goroutine of their
// own: starting one costs more than a few hundred cheap items.
const minPartLen = 512

// Parts returns how many contiguous ranges a loop over n items splits
// into on workers goroutines: one per worker, but never a range
// shorter than minPartLen items, and always at least one.
func Parts(n, workers int) int {
	return max(min(workers, n/minPartLen), 1)
}

// Part returns the bounds [lo, hi) of range i when n items split into
// parts contiguous ranges of near-equal length.
func Part(n, parts, i int) (lo, hi int) {
	return i * n / parts, (i + 1) * n / parts
}

// Seed derives the random seed of unit index under baseSeed. The
// derivation is a SplitMix64 finalizer over the pair, so adjacent
// indices (and adjacent base seeds) map to statistically independent
// streams — unlike base+index arithmetic, whose low bits correlate.
func Seed(baseSeed, index int64) int64 {
	z := uint64(baseSeed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NewRand returns the deterministic random stream of unit index under
// baseSeed.
func NewRand(baseSeed, index int64) *rand.Rand {
	return rand.New(rand.NewSource(Seed(baseSeed, index)))
}
