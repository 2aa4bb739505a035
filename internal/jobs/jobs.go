// Package jobs is a bounded worker-pool job scheduler for simulation work:
// the substrate under the acrossd daemon. It provides priority FIFO
// queueing, content-addressed deduplication (two submissions with the same
// key share one execution), per-job timeouts, retry with exponential
// backoff for transient failures, cancellation of both queued and running
// jobs, and a graceful drain that lets everything already accepted finish
// before shutdown.
//
// The scheduler is parallelism-aware: jobs may be submitted with a Weight,
// and at start each job receives a best-effort grant of CPU tokens
// (readable inside the job via Parallelism(ctx)) to size its own internal
// worker pool — e.g. a fleet replay's devices. Grants never delay a start,
// so N independent single-weight replays still spread across N cores.
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
	// ID is the scheduler-assigned identifier ("j-000001").
	ID string
	// Key is the content-address used for deduplication ("" = never
	// deduplicated).
	Key string
	// Priority orders the queue: higher runs first; FIFO within a priority.
	Priority int
	// Weight is how many CPU tokens the job would like while running (see
	// SubmitOpts.Weight). The actual grant is best-effort and surfaced to
	// the job body via Parallelism.
	Weight int

	fn      Func
	timeout time.Duration
	seq     uint64
	granted int // CPU tokens actually granted (set when the job starts)

	mu          sync.Mutex
	state       State
	result      any
	err         error
	attempts    int
	cancelled   bool               // cancel requested (queued or running)
	cancelRun   context.CancelFunc // cancels the running attempt
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

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

// Granted returns the CPU tokens the scheduler gave the job when it started
// (0 while still queued; at least 1 once running).
func (j *Job) Granted() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.granted
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

// Times returns the submit/start/finish timestamps (zero when the phase has
// not been reached).
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submittedAt, j.startedAt, j.finishedAt
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
	// CPUTokens is the core budget weighted jobs draw extra parallelism
	// from (default: Workers). Every running job holds one token; a job
	// submitted with Weight w is granted up to w-1 more from whatever the
	// budget has spare. Grants are best-effort — a job is never blocked
	// waiting for tokens — so a sweep of N single-weight replays still runs
	// N-wide, while a lone weight-N job gets the whole budget.
	CPUTokens int
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
	if o.CPUTokens <= 0 {
		o.CPUTokens = o.Workers
	}
	return o
}

// Stats is a point-in-time snapshot of scheduler occupancy.
type Stats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Deduped   int64 `json:"deduped"`
	Draining  bool  `json:"draining"`
	// CPUTokens is the core budget; GrantedTokens how much of it running
	// jobs currently hold (base token plus any weighted extras).
	CPUTokens     int `json:"cpu_tokens"`
	GrantedTokens int `json:"granted_tokens"`
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
	byID     map[string]*Job
	byKey    map[string]*Job
	seq      uint64
	nextID   uint64
	running  int
	extra    int // weighted tokens lent to running jobs beyond their base one
	draining bool
	closed   bool
	stats    Stats

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
		byID:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
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
	// Key deduplicates: if a non-terminal (or succeeded) job with the same
	// key exists, it is returned instead of queueing a duplicate. Failed and
	// cancelled jobs do not block resubmission.
	Key string
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int
	// Timeout overrides Options.DefaultTimeout for this job (0 = inherit).
	Timeout time.Duration
	// Weight is the CPU tokens the job would like while running (default
	// and minimum 1). When the job starts, the scheduler grants it between
	// 1 and Weight tokens depending on how much of Options.CPUTokens is
	// spare, and the job body reads the grant with Parallelism(ctx) — e.g.
	// to size a fleet replay's worker pool. Weight never delays a start.
	Weight int
}

// Submit queues fn. The returned bool is true when an existing job was
// returned instead of queueing a new one (dedup hit).
func (s *Scheduler) Submit(opts SubmitOpts, fn Func) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, false, ErrDraining
	}
	if opts.Key != "" {
		if prev, ok := s.byKey[opts.Key]; ok {
			st := prev.State()
			if st != StateFailed && st != StateCancelled {
				s.stats.Deduped++
				return prev, true, nil
			}
		}
	}
	if s.queue.Len() >= s.opts.QueueCap {
		return nil, false, ErrQueueFull
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	weight := opts.Weight
	if weight < 1 {
		weight = 1
	}
	if weight > s.opts.CPUTokens {
		weight = s.opts.CPUTokens
	}
	s.nextID++
	s.seq++
	j := &Job{
		ID:          fmt.Sprintf("j-%06d", s.nextID),
		Key:         opts.Key,
		Priority:    opts.Priority,
		Weight:      weight,
		fn:          fn,
		timeout:     timeout,
		seq:         s.seq,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	s.byID[j.ID] = j
	if j.Key != "" {
		s.byKey[j.Key] = j
	}
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return j, false, nil
}

// Get returns a job by ID (nil when unknown).
func (s *Scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// Lookup returns the job registered under a dedup key (nil when none).
func (s *Scheduler) Lookup(key string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key]
}

// Jobs returns every job the scheduler knows, in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.byID))
	for _, j := range s.byID {
		out = append(out, j)
	}
	// Submission order == seq order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].seq < out[k-1].seq; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Cancel requests cancellation of a job. A queued job finishes immediately
// as cancelled; a running job's context is cancelled and it finishes as
// cancelled once its Func returns. Cancel reports whether the job existed
// and was not already terminal.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
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
		s.finish(j, nil, context.Canceled)
		return true
	}
}

// Stats snapshots occupancy.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.queue.Len()
	st.Running = s.running
	st.Draining = s.draining || s.closed
	st.CPUTokens = s.opts.CPUTokens
	st.GrantedTokens = s.running + s.extra
	st.Workers = s.opts.Workers
	st.QueueCap = s.opts.QueueCap
	return st
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
		// Grant the job its base token plus whatever weighted extras the
		// budget has spare. Best-effort: with every worker busy there is no
		// spare and everyone runs at 1 — so a wide sweep of single-weight
		// jobs saturates the cores, while a lone weighted job on an idle
		// scheduler collects the whole budget.
		extra := j.Weight - 1
		if spare := s.opts.CPUTokens - s.running - s.extra; extra > spare {
			extra = spare
		}
		if extra < 0 {
			extra = 0
		}
		s.extra += extra
		s.mu.Unlock()

		s.runJob(j, 1+extra)

		s.mu.Lock()
		s.running--
		s.extra -= extra
		s.idle.Broadcast()
		s.mu.Unlock()
	}
}

// parallelismKey carries a job's CPU-token grant in its context.
type parallelismKey struct{}

// Parallelism returns the CPU tokens granted to the job that owns ctx — the
// concurrency a job body should use for its own internal parallelism (e.g.
// fleet.Options.Workers). Outside a weighted job it returns 1, so it
// is always safe to pass the result straight to a worker-pool size.
func Parallelism(ctx context.Context) int {
	if v, ok := ctx.Value(parallelismKey{}).(int); ok && v > 0 {
		return v
	}
	return 1
}

// runJob executes one job with timeout, cancellation and transient-retry
// semantics, then finalises its state. granted is the job's CPU-token
// grant, exposed to the body via Parallelism.
func (s *Scheduler) runJob(j *Job, granted int) {
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued and already finished
		j.mu.Unlock()
		return
	}
	if j.cancelled { // cancel raced the pop; finish does the bookkeeping
		j.mu.Unlock()
		s.finish(j, nil, context.Canceled)
		return
	}
	ctx := context.WithValue(s.rootCtx, parallelismKey{}, granted)
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancelRun = cancel
	j.granted = granted
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

	s.finish(j, res, err)
}

// finish moves j to its terminal state. Never called with either lock held
// (taking j.mu then s.mu while Submit takes s.mu then j.mu would invert
// ordering, so the two are taken strictly in sequence here). The terminal
// check makes racing finishers (a queued-cancel racing the worker's pop)
// safe: only the caller that performs the transition closes done.
func (s *Scheduler) finish(j *Job, res any, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.finishedAt = time.Now()
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.result = res
	case j.cancelled || errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = fmt.Errorf("jobs: %s cancelled: %w", j.ID, err)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.err = fmt.Errorf("jobs: %s timed out after %s: %w", j.ID, j.timeout, err)
	default:
		j.state = StateFailed
		j.err = err
	}
	state := j.state
	j.mu.Unlock()
	s.mu.Lock()
	switch state {
	case StateSucceeded:
		s.stats.Succeeded++
	case StateFailed:
		s.stats.Failed++
	case StateCancelled:
		s.stats.Cancelled++
	}
	s.mu.Unlock()
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
