package service

import (
	"sync"

	"across/internal/obs"
)

// progressHub fans one job's sampled metrics out to any number of HTTP
// progress streams. It implements obs.MetricsSink, so it plugs straight
// into the replay's Sampler: the simulator pushes samples as simulated time
// advances, subscribers receive the full history then live updates, and
// closing the hub (job finished) ends every stream. Once the job's series is
// in the store the hub is released: it drops its history and later readers
// are served the stored file.
type progressHub struct {
	mu       sync.Mutex
	samples  []obs.Sample
	subs     map[chan obs.Sample]struct{}
	closed   bool
	released bool
}

func newProgressHub() *progressHub {
	return &progressHub{subs: make(map[chan obs.Sample]struct{})}
}

// WriteSample implements obs.MetricsSink. A slow subscriber never blocks
// the simulator: its channel send is dropped when full (the subscriber
// still has the retained history for catch-up).
func (h *progressHub) WriteSample(s *obs.Sample) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.samples = append(h.samples, *s)
	for ch := range h.subs {
		select {
		case ch <- *s:
		default:
		}
	}
	return nil
}

// Subscribe returns the history so far plus a channel of future samples.
// The channel is closed when the hub closes; cancel detaches early. A nil or
// released hub has neither: ok is false and the series, if any, is stored.
func (h *progressHub) Subscribe() (history []obs.Sample, ch <-chan obs.Sample, cancel func(), ok bool) {
	if h == nil {
		return nil, nil, nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return nil, nil, nil, false
	}
	history = append([]obs.Sample(nil), h.samples...)
	c := make(chan obs.Sample, 256)
	if h.closed {
		close(c)
		return history, c, func() {}, true
	}
	h.subs[c] = struct{}{}
	return history, c, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[c]; ok {
			delete(h.subs, c)
			close(c)
		}
	}, true
}

// Release drops the retained history: the job's series and entry are stored.
// Streams already subscribed hold their own copy and end at Close.
func (h *progressHub) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.released, h.samples = true, nil
}

// Close ends every subscription; further WriteSamples are dropped.
func (h *progressHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}
