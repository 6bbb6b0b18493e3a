package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedEachOrder checks results arrive in strict index order at
// several worker counts, with jittered production so completion order
// is scrambled.
func TestOrderedEachOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			var got []int
			err := OrderedEach(context.Background(), n, workers,
				func(i int) (int, error) {
					r := rand.New(rand.NewSource(int64(i)))
					time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
					return i * i, nil
				},
				func(i, v int) error {
					if v != i*i {
						return fmt.Errorf("index %d got value %d", i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("consumed %d results, want %d", len(got), n)
			}
			for i, idx := range got {
				if idx != i {
					t.Fatalf("position %d consumed index %d", i, idx)
				}
			}
		})
	}
}

// TestOrderedEachWindow checks the in-flight bound: at most `workers`
// units are ever producing-or-parked at once.
func TestOrderedEachWindow(t *testing.T) {
	const n, workers = 200, 4
	var inFlight, peak atomic.Int64
	err := OrderedEach(context.Background(), n, workers,
		func(i int) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			return struct{}{}, nil
		},
		func(i int, _ struct{}) error {
			inFlight.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds worker window %d", p, workers)
	}
}

// TestOrderedEachProduceError checks the first produce error (in index
// order) is returned and later results are discarded, not consumed.
func TestOrderedEachProduceError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		consumed := 0
		err := OrderedEach(context.Background(), 16, workers,
			func(i int) (int, error) {
				if i == 5 {
					return 0, boom
				}
				return i, nil
			},
			func(i, v int) error {
				if i >= 5 {
					t.Fatalf("consumed index %d after error index", i)
				}
				consumed++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want boom", workers, err)
		}
		if consumed != 5 {
			t.Fatalf("workers=%d: consumed %d, want 5", workers, consumed)
		}
	}
}

// TestOrderedEachConsumeError checks a consume error stops the loop.
func TestOrderedEachConsumeError(t *testing.T) {
	boom := errors.New("sink failed")
	for _, workers := range []int{1, 4} {
		err := OrderedEach(context.Background(), 16, workers,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i == 3 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want sink error", workers, err)
		}
	}
}

// TestOrderedEachCancel checks context cancellation unblocks the loop.
func TestOrderedEachCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- OrderedEach(ctx, 8, 2,
			func(i int) (int, error) {
				if i > 0 {
					<-release
				}
				return i, nil
			},
			func(i, v int) error {
				if i == 0 {
					// Cancel, then unblock in-flight producers so the
					// call can drain and return.
					cancel()
					close(release)
				}
				return nil
			})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("OrderedEach did not return after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestOrderedEachEmpty checks n <= 0 is a no-op.
func TestOrderedEachEmpty(t *testing.T) {
	err := OrderedEach(context.Background(), 0, 4,
		func(i int) (int, error) { t.Fatal("produce called"); return 0, nil },
		func(i, v int) error { t.Fatal("consume called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderedStreamNextError checks an error from next is returned
// only after every unit yielded before it is consumed, in order, and
// that next is not called again.
func TestOrderedStreamNextError(t *testing.T) {
	boom := errors.New("source failed")
	for _, workers := range []int{1, 2, 5} {
		var calls, consumed int
		next := func() (int, bool, error) {
			calls++
			if calls > 9 {
				return 0, false, boom
			}
			return calls - 1, true, nil
		}
		err := OrderedStream(context.Background(), workers, next,
			func(u int) (int, error) {
				time.Sleep(time.Duration(rand.New(rand.NewSource(int64(u))).Intn(200)) * time.Microsecond)
				return u, nil
			},
			func(v int) error {
				if v != consumed {
					return fmt.Errorf("consumed %d at position %d", v, consumed)
				}
				consumed++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want the source error", workers, err)
		}
		if consumed != 9 || calls != 10 {
			t.Fatalf("workers=%d: consumed %d units in %d calls, want 9 in 10", workers, consumed, calls)
		}
	}
}

// TestOrderedStreamWindow checks next runs at most workers units ahead
// of consume on a source of unknown length: fewer than workers units
// wait for delivery, plus at most the one being consumed.
func TestOrderedStreamWindow(t *testing.T) {
	const n, workers = 100, 3
	var yielded, consumed atomic.Int64
	i := 0
	next := func() (int, bool, error) {
		if ahead := yielded.Load() - consumed.Load(); ahead > workers {
			return 0, false, fmt.Errorf("next called with %d units in flight", ahead)
		}
		if i == n {
			return 0, false, nil
		}
		i++
		yielded.Add(1)
		return i, true, nil
	}
	err := OrderedStream(context.Background(), workers, next,
		func(u int) (int, error) { return u, nil },
		func(int) error { consumed.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if consumed.Load() != n {
		t.Fatalf("consumed %d, want %d", consumed.Load(), n)
	}
}
