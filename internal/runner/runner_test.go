package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndValues(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 2, 7, 64, 1000} {
		got, err := Map(context.Background(), workers, items, func(_ context.Context, i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, i, v int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapFirstErrorIsLowestIndex(t *testing.T) {
	items := make([]int, 50)
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(context.Background(), workers, items, func(_ context.Context, i, _ int) (int, error) {
			if i == 7 || i == 23 {
				return 0, boom(i)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("workers=%d: err = %v, want job 7 failed", workers, err)
		}
	}
}

// TestMapErrorAbortsPromptly asserts an injected failure stops the pool
// from starting the long tail of queued jobs. Every other job holds its
// worker until the pool is cancelled (or a generous deadline passes), so
// the other workers cannot drain the queue while the failing job's
// worker waits to be scheduled.
func TestMapErrorAbortsPromptly(t *testing.T) {
	const n = 10_000
	items := make([]int, n)
	var ran atomic.Int64
	_, err := Map(context.Background(), 8, items, func(ctx context.Context, i, _ int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("injected")
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Workers check ctx before running a claimed job, so only jobs
	// claimed before the cancellation propagated can run: a small
	// multiple of the worker count, never the whole queue.
	if got := ran.Load(); got > n/10 {
		t.Errorf("ran %d of %d jobs after early failure", got, n)
	}
}

func TestMapRespectsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]int, 32)
	var ran atomic.Int64
	_, err := Map(ctx, 4, items, func(_ context.Context, i, _ int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d jobs ran under a pre-cancelled context", ran.Load())
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
