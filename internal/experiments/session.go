// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulator: Table 1 (configuration), Table 2 (trace
// specifications), Fig 2 (across-page ratios of the LUN collection), Fig 4
// (the across-page penalty under conventional FTL), Fig 8 (Across-FTL's
// operation census), Figs 9–12 (the three-scheme comparison: response time,
// flash ops, erases, overheads) and Figs 13–14 (the page-size case study).
//
// A Session memoises generated traces, warm devices and finished runs so
// figures that share the same replays (9, 10, 11, 12) do not recompute them
// and no (scheme, page size) is aged twice, and runs independent (scheme,
// trace, page-size) replays across a worker pool.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// Config scopes an experiment session.
type Config struct {
	// SSD is the device configuration (8 KB page variant; Figs 13/14 derive
	// the 4 and 16 KB variants from it).
	SSD ssdconf.Config
	// Scale multiplies the Table 2 request counts. 1.0 replays the paper's
	// full trace lengths; the default keeps a full harness run laptop-fast.
	Scale float64
	// Age warms the device to the §4.1 state before measuring.
	Age bool
	// Workers bounds parallel replays (0 = GOMAXPROCS).
	Workers int
	// CollectionSize is the number of Fig 2 traces (the paper shows 61).
	CollectionSize int
	// SeedOffset perturbs every workload seed; re-running the harness with
	// different offsets shows how stable the conclusions are against the
	// synthetic traces' randomness.
	SeedOffset int64
	// Format selects the table rendering: "text" (default), "markdown"
	// or "csv" (for plotting scripts).
	Format string
	// TraceOut, when set, makes the ext-timeline experiment write the
	// Across-FTL replay's execution trace to this path (.jsonl = event
	// lines, anything else = Chrome trace_event JSON for Perfetto).
	TraceOut string
	// MetricsOut, when set, makes ext-timeline also stream its sampled
	// metrics as JSONL to this path.
	MetricsOut string
	// MetricsIntervalMs overrides the sampling interval in simulated ms
	// (0 = divide the trace span into a fixed number of windows).
	MetricsIntervalMs float64
}

// DefaultConfig returns the standard harness setting: Table 1 geometry
// scaled 64x (2 GiB), 5% of the trace lengths, aged device.
func DefaultConfig() Config {
	return Config{
		SSD:            ssdconf.Experiment(),
		Scale:          0.05,
		Age:            true,
		CollectionSize: 61,
	}
}

// runKey identifies one memoised replay.
type runKey struct {
	kind      sim.SchemeKind
	lun       string
	pageBytes int
}

// traceEntry singleflights one trace generation: concurrent workers asking
// for the same profile share one Generate call instead of racing to produce
// (and momentarily hold) duplicate request slices.
type traceEntry struct {
	once sync.Once
	reqs []trace.Request
	err  error
}

// warmEntry singleflights one scheme's warm checkpoint the way traceEntry
// does a trace, so workers that need the same warm device wait for one ageing
// instead of each running their own.
type warmEntry struct {
	conf ssdconf.Config
	once sync.Once
	cp   *sim.Checkpoint
	err  error
}

// Session memoises traces, warm checkpoints and replays for one Config.
type Session struct {
	Cfg Config

	// ctx, when set, cancels in-flight replays: the worker pool stops
	// picking up new runs and the simulator aborts mid-replay. Defaults to
	// context.Background() (never cancelled).
	ctx context.Context

	mu      sync.Mutex
	traces  map[string]*traceEntry
	warmed  map[sim.SchemeKind]*warmEntry
	results map[runKey]*sim.Result
}

// NewSession validates the config and prepares an empty cache.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.SSD.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("experiments: Scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.CollectionSize <= 0 {
		cfg.CollectionSize = 61
	}
	return &Session{
		Cfg:     cfg,
		ctx:     context.Background(),
		traces:  make(map[string]*traceEntry),
		warmed:  make(map[sim.SchemeKind]*warmEntry),
		results: make(map[runKey]*sim.Result),
	}, nil
}

// WithContext attaches a cancellation context to the session and returns it.
// A daemon running a whole-session experiment job uses this so cancelling
// the job stops every replay the session has in flight.
func (s *Session) WithContext(ctx context.Context) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	return s
}

// Luns returns the scaled (and seed-offset) Table 2 profiles.
func (s *Session) Luns() []workload.Profile {
	ps := workload.LunProfiles()
	for i := range ps {
		ps[i] = ps[i].Scale(s.Cfg.Scale)
		ps[i].Seed += s.Cfg.SeedOffset
	}
	return ps
}

// Trace returns (generating and caching on first use) the request stream of
// a profile. Traces are page-size independent, so all page-size variants
// replay the same stream.
func (s *Session) Trace(p workload.Profile) ([]trace.Request, error) {
	s.mu.Lock()
	e, ok := s.traces[p.Name]
	if !ok {
		e = &traceEntry{}
		s.traces[p.Name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.reqs, e.err = workload.Generate(p, s.Cfg.SSD.LogicalSectors())
	})
	return e.reqs, e.err
}

// Result returns the memoised replay for one (scheme, lun, page size),
// running it if needed. Prefer Results for batches — it parallelises.
func (s *Session) Result(kind sim.SchemeKind, lun string, pageBytes int) (*sim.Result, error) {
	m, err := s.Results(pageBytes, []string{lun}, []sim.SchemeKind{kind})
	if err != nil {
		return nil, err
	}
	return m[runKey{kind, lun, pageBytes}], nil
}

// Results ensures every (kind, lun) replay at the given page size exists,
// computing missing ones concurrently, and returns the full map.
func (s *Session) Results(pageBytes int, luns []string, kinds []sim.SchemeKind) (map[runKey]*sim.Result, error) {
	var missing []runKey
	s.mu.Lock()
	for _, lun := range luns {
		for _, kind := range kinds {
			k := runKey{kind, lun, pageBytes}
			if _, ok := s.results[k]; !ok {
				missing = append(missing, k)
			}
		}
	}
	s.mu.Unlock()

	if len(missing) > 0 {
		workers := s.Cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(missing) {
			workers = len(missing)
		}
		jobs := make(chan runKey)
		errs := make(chan error, len(missing))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range jobs {
					if err := s.ctx.Err(); err != nil {
						errs <- fmt.Errorf("experiments: %s on %s @%dB pages: %w",
							k.kind, k.lun, k.pageBytes, err)
						continue
					}
					res, err := s.run(k)
					if err != nil {
						errs <- fmt.Errorf("experiments: %s on %s @%dB pages: %w",
							k.kind, k.lun, k.pageBytes, err)
						continue
					}
					s.mu.Lock()
					s.results[k] = res
					s.mu.Unlock()
				}
			}()
		}
		for _, k := range missing {
			jobs <- k
		}
		close(jobs)
		wg.Wait()
		close(errs)
		var all []error
		for err := range errs {
			all = append(all, err)
		}
		if err := errors.Join(all...); err != nil {
			return nil, err
		}
	}

	out := make(map[runKey]*sim.Result, len(luns)*len(kinds))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, lun := range luns {
		for _, kind := range kinds {
			k := runKey{kind, lun, pageBytes}
			out[k] = s.results[k]
		}
	}
	return out, nil
}

// run performs one replay.
func (s *Session) run(k runKey) (*sim.Result, error) {
	var prof workload.Profile
	found := false
	for _, p := range s.Luns() {
		if p.Name == k.lun {
			prof, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown lun %q", k.lun)
	}
	reqs, err := s.Trace(prof)
	if err != nil {
		return nil, err
	}
	cp, err := s.checkpoint(k.kind, s.Cfg.SSD.WithPageBytes(k.pageBytes))
	if err != nil {
		return nil, err
	}
	r, err := cp.Fork()
	if err != nil {
		return nil, err
	}
	return r.ReplayQDCtx(s.ctx, reqs, 0)
}

// checkpoint returns (warming and caching on first use) the open checkpoint
// of one scheme on one device: built and, when the session ages, aged to the
// §4.1 state once, so every replay, timeline and study cell forks it instead
// of ageing a device of its own. One device per scheme is kept, the one asked
// for last: figures walk the page sizes one after another, and a checkpoint
// is as large as the runner it copies.
func (s *Session) checkpoint(kind sim.SchemeKind, conf ssdconf.Config) (*sim.Checkpoint, error) {
	s.mu.Lock()
	e := s.warmed[kind]
	if e == nil || e.conf != conf {
		e = &warmEntry{conf: conf}
		s.warmed[kind] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		var r *sim.Runner
		if r, e.err = sim.NewRunner(kind, conf); e.err != nil {
			return
		}
		if s.Cfg.Age {
			if e.err = r.AgeCtx(s.ctx, sim.DefaultAging()); e.err != nil {
				return
			}
		}
		e.cp, e.err = r.Checkpoint()
	})
	return e.cp, e.err
}

// lunNames lists the profile names in Table 2 order.
func (s *Session) lunNames() []string {
	ps := s.Luns()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
