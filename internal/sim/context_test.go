package sim

import (
	"context"
	"errors"
	"testing"

	"across/internal/obs"
)

// cancelAtTracer cancels a context when the replay issues its trigger-th
// request, tying the cancellation to simulation progress instead of wall
// time.
type cancelAtTracer struct {
	obs.Nop
	fired   int
	trigger int
	cancel  context.CancelFunc
}

func (c *cancelAtTracer) RequestStart(id int64, write bool, class uint8, offsetSectors, sectors int64, pages int, at float64) {
	c.fired++
	if c.fired == c.trigger {
		c.cancel()
	}
}

// TestReplayCtxCancelledAborts: a pre-cancelled context must stop the
// replay at (or near) the first request, reporting the context cause.
func TestReplayCtxCancelledAborts(t *testing.T) {
	r, err := NewRunner(KindAcross, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(t, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.ReplayQDCtx(ctx, reqs, 0)
	if err == nil {
		t.Fatal("cancelled replay ran to completion")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled replay returned a result")
	}
}

// TestReplayCtxCancelMidway cancels after a fixed number of requests via a
// context hooked to the replay's own progress, and requires the abort to
// land within one cancellation-check interval of the trigger.
func TestReplayCtxCancelMidway(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	if len(reqs) < 4*(cancelCheckMask+1) {
		t.Fatalf("trace too short (%d) for a midway cancel", len(reqs))
	}
	r, err := NewRunner(KindFTL, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAtTracer{trigger: len(reqs) / 2, cancel: cancel}
	r.SetTracer(tr)
	_, err = r.ReplayQDCtx(ctx, reqs, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("midway cancel: err = %v", err)
	}
	// The replay checks the context every cancelCheckMask+1 requests, so it
	// must have stopped within one interval of the trigger.
	if tr.fired > tr.trigger+cancelCheckMask+1 {
		t.Fatalf("replay ran %d requests past the cancel (limit %d)", tr.fired-tr.trigger, cancelCheckMask+1)
	}
}

// TestAgeCtxCancelled: aging must honour cancellation too — it is the
// longest single phase of a daemon replay job.
func TestAgeCtxCancelled(t *testing.T) {
	r, err := NewRunner(KindFTL, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.AgeCtx(ctx, DefaultAging()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AgeCtx on cancelled ctx: err = %v", err)
	}
}

// TestReplayCtxBackgroundMatchesReplay: threading a Background context
// through the cancellation checks must not change simulation results.
func TestReplayCtxBackgroundMatchesReplay(t *testing.T) {
	reqs := smallTrace(t, 0.005)
	run := func(viaCtx bool) *Result {
		r, err := NewRunner(KindAcross, smallConf())
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if viaCtx {
			res, err = r.ReplayQDCtx(context.Background(), reqs, 0)
		} else {
			res, err = r.Replay(reqs)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, viaCtx := run(false), run(true)
	if plain.Counters != viaCtx.Counters || plain.TotalIOTime() != viaCtx.TotalIOTime() {
		t.Fatalf("ReplayQDCtx(Background) diverged from Replay:\n%+v\nvs\n%+v", plain.Counters, viaCtx.Counters)
	}
}
