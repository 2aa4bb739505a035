// Package jobs is a bounded worker pool for simulation work: the substrate
// under the acrossd daemon. It provides priority FIFO queueing, per-job
// timeouts, retry with exponential backoff for transient failures,
// cancellation of both queued and running jobs, and a graceful drain that
// lets everything already accepted finish before shutdown. It keeps no
// registry: once a job finishes, only the caller that submitted it holds
// it, and that caller names, deduplicates and counts jobs itself
// (internal/service does).
//
// Every job runs on one worker and is serial inside: the pool's width is the
// only parallelism, so N independent replays spread across N cores.
//
// The scheduler knows nothing about the simulator: a job is an opaque
// func(ctx) (any, error). Cancellation reaches a running job only through
// its context, so job bodies must thread ctx into long-running work (the
// sim package's ReplayQDCtx / AgeCtx exist for exactly this).
package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: Queued -> Running -> one of the three terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Func is one unit of work. The result it returns is retained on the Job
// and surfaced by Result(); the error decides the terminal state.
type Func func(ctx context.Context) (any, error)

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps an error to tell the scheduler the failure is worth
// retrying (a full disk, a momentarily unavailable store — not a
// deterministic simulator error, which would fail identically again).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Errors returned by Submit.
var (
	// ErrDraining rejects submissions after Drain or Close has begun.
	ErrDraining = errors.New("jobs: scheduler is draining")
	// ErrQueueFull rejects submissions when the queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue is full")
)

// Job is one scheduled unit of work.
type Job struct {
	// Priority orders the queue: higher runs first; FIFO within a priority.
	Priority int

	fn      Func
	timeout time.Duration
	seq     uint64

	mu         sync.Mutex
	state      State
	result     any
	err        error
	attempts   int
	cancelled  bool               // cancel requested (queued or running)
	cancelRun  context.CancelFunc // cancels the running attempt
	startedAt  time.Time
	finishedAt time.Time

	done chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's outcome; valid once Done is closed. The error is
// nil exactly when the state is StateSucceeded.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Attempts returns how many times the job's Func has been invoked.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires; it returns the job's
// error (nil on success) or the context's.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		_, err := j.Result()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Times returns the start/finish timestamps (zero when the phase has not
// been reached).
func (j *Job) Times() (started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.startedAt, j.finishedAt
}

// Cancel requests cancellation. A queued job finishes immediately as
// cancelled; a running job's context is cancelled and it finishes as
// cancelled once its Func returns. Cancel reports whether the job was not
// already terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return false
	case j.state == StateRunning:
		j.cancelled = true
		if j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
		return true
	default:
		// Queued: finish it as cancelled right away; the worker that later
		// pops it sees a terminal job and skips it.
		j.cancelled = true
		j.mu.Unlock()
		j.finish(nil, context.Canceled)
		return true
	}
}

// Options configures a Scheduler.
type Options struct {
	// Workers bounds concurrent job execution (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs (default
	// 1024; Submit returns ErrQueueFull beyond it).
	QueueCap int
	// DefaultTimeout bounds each job's total execution time including
	// retries (0 = no timeout). SubmitOpts can override per job.
	DefaultTimeout time.Duration
	// Retries is how many times a Transient failure is re-attempted
	// (default 0 = no retries).
	Retries int
	// Backoff is the delay before the first retry; it doubles per attempt
	// (default 50ms).
	Backoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// Stats is a point-in-time snapshot of scheduler occupancy.
type Stats struct {
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Draining bool `json:"draining"`
	// Workers and QueueCap echo the scheduler's configured capacities so a
	// snapshot is interpretable on its own (queued/QueueCap is the
	// saturation ratio health endpoints report).
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
}

// Scheduler runs jobs on a bounded worker pool.
type Scheduler struct {
	opts Options

	rootCtx  context.Context
	rootStop context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signalled when the queue gains a job or the scheduler stops
	idle     *sync.Cond // signalled when a job finishes (Drain waits on it)
	queue    jobQueue
	seq      uint64
	running  int
	draining bool
	closed   bool

	wg sync.WaitGroup
}

// New starts a scheduler with opts' worker pool.
func New(opts Options) *Scheduler {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:     opts,
		rootCtx:  ctx,
		rootStop: stop,
	}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SubmitOpts tunes one submission.
type SubmitOpts struct {
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int
	// Timeout overrides Options.DefaultTimeout for this job (0 = inherit).
	Timeout time.Duration
}

// Submit queues fn.
func (s *Scheduler) Submit(opts SubmitOpts, fn Func) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	if s.queue.Len() >= s.opts.QueueCap {
		return nil, ErrQueueFull
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	s.seq++
	j := &Job{
		Priority: opts.Priority,
		fn:       fn,
		timeout:  timeout,
		seq:      s.seq,
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return j, nil
}

// Stats snapshots occupancy.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:   s.queue.Len(),
		Running:  s.running,
		Draining: s.draining || s.closed,
		Workers:  s.opts.Workers,
		QueueCap: s.opts.QueueCap,
	}
}

// Drain stops accepting new jobs and waits for every queued and running job
// to finish. If ctx expires first, everything still outstanding is
// cancelled and ctx's error returned (workers are still waited for, so no
// job outlives Drain).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.queue.Len() > 0 || s.running > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.rootStop() // cancel running jobs; queued ones are popped and cancelled
		<-drained
	}
	s.shutdownWorkers()
	return err
}

// Close cancels everything outstanding and stops the workers. Safe to call
// after Drain (it is then a no-op beyond bookkeeping).
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.rootStop()
	s.shutdownWorkers()
}

func (s *Scheduler) shutdownWorkers() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker pops the highest-priority job and runs it to a terminal state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			if s.draining && s.running == 0 {
				// Drained: nothing queued, nothing running, no new
				// submissions possible. Let Drain's waiter see it.
				s.idle.Broadcast()
			}
			s.cond.Wait()
		}
		if s.queue.Len() == 0 && s.closed {
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.running++
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.running--
		s.idle.Broadcast()
		s.mu.Unlock()
	}
}

// runJob executes one job with timeout, cancellation and transient-retry
// semantics, then finalises its state.
func (s *Scheduler) runJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued and already finished
		j.mu.Unlock()
		return
	}
	if j.cancelled { // cancel raced the pop; finish does the bookkeeping
		j.mu.Unlock()
		j.finish(nil, context.Canceled)
		return
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.rootCtx)
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancelRun = cancel
	j.mu.Unlock()
	defer cancel()

	backoff := s.opts.Backoff
	var (
		res any
		err error
	)
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts++
		j.mu.Unlock()
		res, err = safeCall(ctx, j.fn)
		if err == nil || ctx.Err() != nil || attempt >= s.opts.Retries || !IsTransient(err) {
			break
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			err = ctx.Err()
		}
		if ctx.Err() != nil {
			break
		}
		backoff *= 2
	}

	j.finish(res, err)
}

// finish moves j to its terminal state. The terminal check makes racing
// finishers (a queued-cancel racing the worker's pop) safe: only the caller
// that performs the transition closes done.
func (j *Job) finish(res any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finishedAt = time.Now()
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.result = res
	case j.cancelled || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = fmt.Errorf("jobs: cancelled: %w", err)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Errorf("jobs: timed out after %s: %w", j.timeout, err)
	default:
		j.state = StateFailed
		j.err = err
	}
	close(j.done)
}

// safeCall invokes fn, converting a panic into an error so one bad job
// cannot take the daemon down.
func safeCall(ctx context.Context, fn Func) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: job panicked: %v", p)
		}
	}()
	return fn(ctx)
}

// jobQueue is a priority FIFO: max Priority first, submission (seq) order
// within a priority.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].Priority != q[k].Priority {
		return q[i].Priority > q[k].Priority
	}
	return q[i].seq < q[k].seq
}
func (q jobQueue) Swap(i, k int) { q[i], q[k] = q[k], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
