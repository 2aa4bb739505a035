// Warm-state snapshots (DESIGN §13): Runner.Snapshot serialises the
// complete mutable simulator state — scheme mapping structures, flash
// array, allocator/GC state, DRAM caches, host cache, chip and bus clocks,
// and the aging bookkeeping — into a self-describing versioned container;
// OpenCheckpoint verifies such a container once and Checkpoint.Fork builds
// a replay-ready Runner from it. A sweep can therefore age a device once
// per (config, aging) pair, open the checkpoint once, and fork every
// variant replay from it instead of re-aging.
package sim

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"across/internal/check"
	"across/internal/hostcache"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// Snapshot serialises the runner's full simulator state. The scheme (and,
// when wrapped, the host cache and its inner scheme) must implement
// snapshot.Snapshotter; every scheme built by NewScheme does. Observers
// (tracer, sampler, checker) are replay-scoped and not captured.
func (r *Runner) Snapshot() ([]byte, error) {
	snap, ok := r.Scheme.(snapshot.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: scheme %s does not support snapshots", r.Scheme.Name())
	}
	confJSON, err := json.Marshal(r.Conf)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot config: %w", err)
	}
	enc := snapshot.NewEncoder()
	enc.Tag("sim")
	enc.Str(string(r.Kind))
	enc.Str(string(confJSON))
	cachePages := 0
	if hc, ok := r.Scheme.(*hostcache.Scheme); ok {
		cachePages = hc.CachePages()
	}
	enc.I64(int64(cachePages))
	enc.Bool(r.warmed)
	enc.I64(r.warmupWrites)
	if err := snap.SnapshotState(enc); err != nil {
		return nil, err
	}
	return enc.Finish()
}

// Checkpoint is an opened snapshot: a blob whose container, checksum, state
// shape and device invariants OpenCheckpoint has verified once, kept as its
// inflated body so that any number of runners can be forked from it without
// verifying again. The body is immutable — Fork only reads it, and restored
// components copy what they keep — so a Checkpoint is safe for concurrent
// use and a fork can never see another fork's writes.
type Checkpoint struct {
	// Kind and Conf are the scheme and device configuration the snapshot
	// was taken with.
	Kind SchemeKind
	Conf ssdconf.Config

	body snapshot.Body
	// first is the runner OpenCheckpoint decoded and audited, handed to the
	// first Fork so that opening and forking once decodes once.
	first atomic.Pointer[Runner]
}

// OpenCheckpoint verifies a snapshot produced by Snapshot, everything a
// blob from disk or the network must pass before a runner is built from it:
// the container (magic, version, flags, bounded inflate, SHA-256), the full
// decode into a scheme stack rebuilt from the embedded configuration
// (including a host-cache wrap when one was captured), every component's
// shape validation, and the device auditor over the result — a snapshot
// whose state violates the mapping/flash invariants (tampered, or from a
// buggy writer) is rejected rather than replayed. Schemes that cannot be
// audited skip that final check.
//
// It supports schemes as built by NewScheme; a snapshot taken from a scheme
// constructed with non-default structural options (e.g. a custom DFTL
// resident-page budget) fails the shape validation cleanly.
func OpenCheckpoint(blob []byte) (*Checkpoint, error) {
	body, err := snapshot.OpenBody(blob)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{body: body}
	r, err := c.decode()
	if err != nil {
		return nil, err
	}
	if chk, err := check.New(r.Scheme, check.Options{}); err == nil {
		if err := chk.Audit(); err != nil {
			return nil, fmt.Errorf("sim: restored state failed audit: %w", err)
		}
	}
	c.Kind, c.Conf = r.Kind, *r.Conf
	c.first.Store(r)
	return c, nil
}

// BodyBytes returns the size of the inflated body the checkpoint holds.
func (c *Checkpoint) BodyBytes() int { return c.body.Len() }

// Fork returns a new replay-ready Runner in the checkpointed state: a fresh
// scheme stack restored from the verified body by the same RestoreState
// code that opened it, with no inflate, no hash and no second audit. Every
// fork owns all of its state.
func (c *Checkpoint) Fork() (*Runner, error) {
	if r := c.first.Swap(nil); r != nil {
		return r, nil
	}
	return c.decode()
}

// decode builds a runner from the body.
func (c *Checkpoint) decode() (*Runner, error) {
	dec := c.body.Decoder()
	dec.Tag("sim")
	kind := SchemeKind(dec.Str())
	confJSON := dec.Str()
	cachePages := dec.I64()
	warmed := dec.Bool()
	warmupWrites := dec.I64()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	var conf ssdconf.Config
	if err := json.Unmarshal([]byte(confJSON), &conf); err != nil {
		return nil, fmt.Errorf("sim: snapshot config: %w", err)
	}
	if err := conf.Validate(); err != nil {
		return nil, fmt.Errorf("sim: snapshot config: %w", err)
	}
	if warmupWrites < 0 {
		return nil, fmt.Errorf("sim: snapshot has negative warm-up writes %d", warmupWrites)
	}
	if cachePages < 0 || cachePages > conf.LogicalPages() {
		return nil, fmt.Errorf("sim: snapshot host cache of %d pages outside [0,%d]", cachePages, conf.LogicalPages())
	}
	scheme, err := NewScheme(kind, &conf)
	if err != nil {
		return nil, err
	}
	if cachePages > 0 {
		scheme = hostcache.Wrap(scheme, int(cachePages))
	}
	snap, ok := scheme.(snapshot.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: scheme %s does not support snapshots", scheme.Name())
	}
	if err := snap.RestoreState(dec); err != nil {
		return nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return &Runner{
		Conf:         &conf,
		Kind:         kind,
		Scheme:       scheme,
		warmed:       warmed,
		warmupWrites: warmupWrites,
	}, nil
}

// Restore reconstructs a replay-ready Runner from a snapshot produced by
// Snapshot: OpenCheckpoint, then one Fork. A caller that wants several
// runners from one blob holds the Checkpoint and forks it instead.
func Restore(blob []byte) (*Runner, error) {
	c, err := OpenCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return c.Fork()
}
