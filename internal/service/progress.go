package service

import (
	"sync"

	"across/internal/obs"
)

// progressHub lets any number of HTTP progress streams walk one job's sample
// series. It keeps no samples of its own: it implements obs.MetricsSink, so
// the replay's Sampler publishes its own series to it after each sample, and
// each stream writes series[sent:] at its own cursor — a slow stream falls
// behind without losing a sample, and the simulator never waits for one.
// Publishing wakes the waiting streams by closing one channel; wakes
// coalesce. Closing the hub (job finished) lets every stream drain to the
// end and stop. Once the job's series is in the store the hub is released:
// later readers are served the stored file, and the hub lets go of the
// series when the last stream already reading it ends.
type progressHub struct {
	mu       sync.Mutex
	series   []obs.Sample  // the sampler's series as last published
	changed  chan struct{} // closed by the next Publish or Close; nil until a stream waits
	readers  int
	closed   bool
	released bool
}

// Publish implements obs.MetricsSink. A retried attempt replays to the same
// series: its publishes are ignored until they pass what was published.
func (h *progressHub) Publish(series []obs.Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(series) <= len(h.series) {
		return
	}
	h.series = series
	h.wake()
}

func (h *progressHub) wake() {
	if h.changed != nil {
		close(h.changed)
		h.changed = nil
	}
}

// subscribe registers a stream, which calls unsubscribe when it ends. A nil
// or released hub takes none: the series, if any, is stored.
func (h *progressHub) subscribe() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return false
	}
	h.readers++
	return true
}

func (h *progressHub) unsubscribe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.readers--
	h.drop()
}

// next returns the series published so far and a channel closed when there
// is more; the channel is nil once the hub is closed and the series whole.
func (h *progressHub) next() ([]obs.Sample, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.series, nil
	}
	if h.changed == nil {
		h.changed = make(chan struct{})
	}
	return h.series, h.changed
}

// Release marks the job's series and entry stored.
func (h *progressHub) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.released = true
	h.drop()
}

func (h *progressHub) drop() {
	if h.released && h.readers == 0 {
		h.series = nil
	}
}

// Close ends every stream once it has written the whole series: the job's
// run has returned.
func (h *progressHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.wake()
}
