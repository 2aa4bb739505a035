package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCtx bounds every blocking wait in these tests.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunsToSuccess(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	j, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	res, err := j.Result()
	if err != nil || res.(int) != 42 {
		t.Fatalf("Result = %v, %v; want 42, nil", res, err)
	}
	if st := j.State(); st != StateSucceeded {
		t.Fatalf("state = %v", st)
	}
}

// TestPriorityFIFO pins one worker on a gate job, queues mixed-priority
// jobs, and asserts execution order: high priority first, FIFO within equal
// priority.
func TestPriorityFIFO(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	gate := make(chan struct{})
	blocker, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	mk := func(name string, prio int) *Job {
		j, err := s.Submit(SubmitOpts{Priority: prio}, func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	low1 := mk("low1", 0)
	high1 := mk("high1", 10)
	low2 := mk("low2", 0)
	high2 := mk("high2", 10)
	close(gate)
	for _, j := range []*Job{blocker, low1, high1, low2, high2} {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high1", "high2", "low1", "low2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", order, want)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	gate := make(chan struct{})
	defer close(gate)
	s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) { <-gate; return nil, nil })
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		t.Error("cancelled queued job must not run")
		return nil, nil
	})
	if !j.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	_ = j.Wait(waitCtx(t))
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	started := make(chan struct{})
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if !j.Cancel() {
		t.Fatal("Cancel returned false for a running job")
	}
	if err := j.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}

func TestJobTimeout(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	j, _ := s.Submit(SubmitOpts{Timeout: 20 * time.Millisecond}, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err := j.Wait(waitCtx(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed (timeout is a failure, not a cancel)", st)
	}
}

func TestTransientRetryWithBackoff(t *testing.T) {
	s := New(Options{Workers: 1, Retries: 3, Backoff: time.Millisecond})
	defer s.Close()
	var calls int
	var mu sync.Mutex
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n < 3 {
			return nil, Transient(fmt.Errorf("flaky disk (attempt %d)", n))
		}
		return "recovered", nil
	})
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := j.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestNonTransientIsNotRetried(t *testing.T) {
	s := New(Options{Workers: 1, Retries: 5, Backoff: time.Millisecond})
	defer s.Close()
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		return nil, errors.New("deterministic simulator error")
	})
	_ = j.Wait(waitCtx(t))
	if got := j.Attempts(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry for permanent errors)", got)
	}
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %v", st)
	}
}

func TestTransientExhaustionFails(t *testing.T) {
	s := New(Options{Workers: 1, Retries: 2, Backoff: time.Millisecond})
	defer s.Close()
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		return nil, Transient(errors.New("still flaky"))
	})
	_ = j.Wait(waitCtx(t))
	if got, st := j.Attempts(), j.State(); got != 3 || st != StateFailed {
		t.Fatalf("attempts=%d state=%v, want 3 attempts then failed", got, st)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 2})
	defer s.Close()
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started // the blocker occupies the worker, not a queue slot
	// Worker is busy; two more fill the queue.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
}

func TestDrainFinishesOutstandingAndRejectsNew(t *testing.T) {
	s := New(Options{Workers: 2})
	var done int32
	var mu sync.Mutex
	var all []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			done++
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	if err := s.Drain(waitCtx(t)); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	mu.Lock()
	if done != 8 {
		t.Fatalf("drained with %d/8 jobs finished", done)
	}
	mu.Unlock()
	for i, j := range all {
		if st := j.State(); st != StateSucceeded {
			t.Fatalf("job %d state = %v after drain", i, st)
		}
	}
	if _, err := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // a well-behaved ctx-threading job
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("straggler state = %v, want cancelled", st)
	}
}

func TestPanickingJobFails(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	j, _ := s.Submit(SubmitOpts{}, func(ctx context.Context) (any, error) {
		panic("job bug")
	})
	err := j.Wait(waitCtx(t))
	if err == nil || j.State() != StateFailed {
		t.Fatalf("panicking job: err=%v state=%v", err, j.State())
	}
}

// TestConcurrentSubmitters hammers Submit/Cancel/Stats from many goroutines
// (run with -race). Every third job is cancelled as soon as it is submitted,
// racing the worker's pop: the case finish's terminal check guards.
func TestConcurrentSubmitters(t *testing.T) {
	s := New(Options{Workers: 4, QueueCap: 4096})
	defer s.Close()
	type submitted struct {
		j         *Job
		ran       *atomic.Bool
		cancel    bool // Cancel was called
		cancelled bool // and returned true
		want      int
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []submitted
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n, ran := g*25+i, new(atomic.Bool)
				j, err := s.Submit(SubmitOpts{Priority: i % 3}, func(ctx context.Context) (any, error) {
					ran.Store(true)
					return n, nil
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				sub := submitted{j: j, ran: ran, cancel: n%3 == 0, want: n}
				if sub.cancel {
					sub.cancelled = j.Cancel()
				}
				mu.Lock()
				all = append(all, sub)
				mu.Unlock()
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	ctx := waitCtx(t)
	var cancelled int
	for _, sub := range all {
		err := sub.j.Wait(ctx)
		res, _ := sub.j.Result()
		switch st := sub.j.State(); {
		case st == StateSucceeded && err == nil && res == sub.want:
			// A job that finished before Cancel, or ran to completion
			// after it: its Func ignores ctx.
		case st == StateCancelled && sub.cancelled && !sub.ran.Load() && errors.Is(err, context.Canceled):
			// Cancelled while queued (or as the worker popped it): it never ran.
			cancelled++
		default:
			t.Errorf("job %d (cancel=%v, Cancel()=%v, ran=%v): state %v, result %v, err %v",
				sub.want, sub.cancel, sub.cancelled, sub.ran.Load(), st, res, err)
		}
		if sub.cancel && !sub.cancelled && sub.j.State() != StateSucceeded {
			t.Errorf("job %d: Cancel() = false on a job that was not yet terminal", sub.want)
		}
	}
	if len(all) != 16*25 || cancelled == 0 {
		t.Fatalf("%d jobs submitted, %d of them cancelled; want %d, some cancelled", len(all), cancelled, 16*25)
	}
}
