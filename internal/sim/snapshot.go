// Warm-state snapshots (DESIGN §13): Runner.Snapshot serialises the
// complete mutable simulator state — scheme mapping structures, flash
// array, allocator/GC state, DRAM caches, chip and bus clocks,
// and the aging bookkeeping — into a self-describing versioned container;
// Restore verifies and decodes such a container into a replay-ready Runner;
// OpenCheckpoint keeps that runner and Checkpoint.Fork copies it. A sweep
// can therefore age a device once per (config, aging) pair, open the
// checkpoint once, and fork every variant replay from it instead of
// re-aging.
package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"across/internal/check"
	"across/internal/ftl"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// Snapshot serialises the runner's full simulator state. The scheme must
// implement snapshot.Snapshotter; every scheme built by NewScheme does.
// Observers (tracer, sampler, checker) are replay-scoped and not captured.
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
	enc.I64(0) // the retired host data cache's size: always none
	enc.Bool(r.warmed)
	enc.I64(r.warmupWrites)
	if err := snap.SnapshotState(enc); err != nil {
		return nil, err
	}
	return enc.Finish()
}

// Checkpoint is the one starting state every replay forks: the runner
// OpenCheckpoint decoded from a blob, verified and audited, or a copy of a
// live runner (Runner.Checkpoint), kept as a template that any number of
// runners are forked from by plain state copy — or, from FreshCheckpoint, no
// template at all. Nothing replays on the template, observes it or writes to
// it once the checkpoint exists — Fork only reads it, into tables the fork
// owns — so a Checkpoint is safe for concurrent use and a fork can never see
// another fork's writes. The blob is not kept, and its inflated body never
// existed: the open streamed it into the template.
type Checkpoint struct {
	// Kind and Conf are the scheme and device configuration the snapshot
	// was taken with.
	Kind SchemeKind
	Conf ssdconf.Config

	template *Runner // nil for a fresh checkpoint
	bytes    int64
}

// FreshCheckpoint is the checkpoint of a device nothing has written: it
// refuses an unknown kind or an invalid configuration as NewRunner does, and
// each Fork is a NewRunner, since building a fresh device costs less than
// copying one. A refusal only the build can make, such as a geometry too
// large for a scheme's tables, comes from Fork.
func FreshCheckpoint(kind SchemeKind, conf ssdconf.Config) (*Checkpoint, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	if _, err := ParseKind(string(kind)); err != nil {
		return nil, err
	}
	return &Checkpoint{Kind: kind, Conf: conf}, nil
}

// OpenCheckpoint is Restore with the runner kept, as the template every Fork
// copies, instead of returned: the blob passes everything Restore documents,
// once, and no fork repeats any of it.
func OpenCheckpoint(blob []byte) (*Checkpoint, error) {
	r, err := Restore(blob)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Kind: r.Kind, Conf: *r.Conf, template: r}
	// One trial fork sizes the checkpoint by what a fork copies, and shows
	// that the template forks before anything is handed one.
	if _, c.bytes, err = c.fork(); err != nil {
		return nil, err
	}
	return c, nil
}

// Checkpoint opens a checkpoint of the runner's present state without the
// trip through a blob — for a caller that warmed r itself and has nothing to
// verify, which encoding, inflating, decoding and auditing would cost several
// times the ageing. The template is a copy of r, so r stays the caller's to
// replay on.
func (r *Runner) Checkpoint() (*Checkpoint, error) {
	c := &Checkpoint{Kind: r.Kind, Conf: *r.Conf, template: r}
	t, n, err := c.fork()
	if err != nil {
		return nil, err
	}
	c.template, c.bytes = t, n
	return c, nil
}

// Bytes returns the size of the state a Fork copies, which is also what the
// checkpoint's template retains: 0 for a fresh checkpoint.
func (c *Checkpoint) Bytes() int64 { return c.bytes }

// Fork returns a new replay-ready Runner in the checkpointed state: a fresh
// scheme with the template's state copied into it column by column —
// no decode, no check that already passed at open, no second audit. Every
// fork owns all of its state. A fresh checkpoint's fork is a NewRunner.
func (c *Checkpoint) Fork() (*Runner, error) {
	r, _, err := c.fork()
	return r, err
}

func (c *Checkpoint) fork() (*Runner, int64, error) {
	conf, t := c.Conf, c.template
	if t == nil {
		r, err := NewRunner(c.Kind, conf)
		return r, 0, err
	}
	scheme, err := newStack(c.Kind, &conf, nil)
	if err != nil {
		return nil, 0, err
	}
	cp, ok := scheme.(interface{ CopyState(ftl.Scheme) int64 })
	if !ok {
		return nil, 0, fmt.Errorf("sim: scheme %s does not support forking", scheme.Name())
	}
	n := cp.CopyState(t.Scheme)
	return &Runner{Conf: &conf, Kind: c.Kind, Scheme: scheme, warmed: t.warmed, warmupWrites: t.warmupWrites}, n, nil
}

// Restore reconstructs a replay-ready Runner from a snapshot produced by
// Snapshot, after everything a blob from disk or the network must pass
// before a runner is returned from it: the container's header (magic,
// version, flags), the full decode — streamed, a window at a time — into a
// scheme rebuilt from the embedded configuration (a snapshot taken behind
// the retired host data cache is refused), every component's shape and
// range validation on the way in, the body's length and SHA-256 once all of
// it has been read, and the device auditor over the result — a snapshot whose
// state violates the mapping/flash invariants (tampered, or from a buggy
// writer) is rejected rather than replayed. Schemes that cannot be audited
// skip that final check. The digest comes after the decode, so a refusal
// by a component may be damage the digest would have named: every refusal
// of the body is reported as snapshot.ErrCorrupt.
//
// It supports schemes as built by NewScheme; a snapshot taken from a scheme
// constructed with non-default structural options (e.g. a custom DFTL
// resident-page budget) fails the shape validation cleanly. A caller that
// wants several runners from one blob opens a Checkpoint and forks it.
func Restore(blob []byte) (*Runner, error) {
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		return nil, err
	}
	r, err := decodeRunner(dec)
	if err != nil {
		if !errors.Is(err, snapshot.ErrCorrupt) {
			err = fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
		}
		return nil, err
	}
	if chk, err := check.New(r.Scheme, check.Options{}); err == nil {
		if err := chk.Audit(); err != nil {
			return nil, fmt.Errorf("sim: restored state failed audit: %w", err)
		}
	}
	return r, nil
}

// decodeRunner reads a whole snapshot body into a runner built from the
// configuration it opens with, and verifies the container behind it.
func decodeRunner(dec *snapshot.Decoder) (*Runner, error) {
	dec.Tag("sim")
	kind := SchemeKind(dec.Str())
	confJSON := dec.Str()
	hostCache := dec.I64()
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
	if hostCache != 0 {
		return nil, fmt.Errorf("sim: snapshot was taken behind a host cache of %d pages, which the simulator no longer models", hostCache)
	}
	scheme, err := newStack(kind, &conf, nil)
	if err != nil {
		return nil, err
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
	return &Runner{Conf: &conf, Kind: kind, Scheme: scheme, warmed: warmed, warmupWrites: warmupWrites}, nil
}
