package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/report"
	"across/internal/snapshot"
	"across/internal/trace"
)

// snapKinds is the differential matrix: every scheme.
func snapKinds() []SchemeKind { return append(Kinds(), KindDFTL) }

// newSnapRunner builds a runner on the small fixture device.
func newSnapRunner(t *testing.T, kind SchemeKind) *Runner {
	t.Helper()
	r, err := NewRunner(kind, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// replayObserved replays reqs and returns the result plus the metrics
// NDJSON and rendered timeline tables the run produced.
func replaySnapObserved(t *testing.T, r *Runner, reqs []trace.Request, qd int) (*Result, string, string) {
	t.Helper()
	smp, err := obs.NewSampler(25)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSampler(smp)
	res, err := r.ReplayQD(reqs, qd)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	if err := obs.WriteNDJSON(&ndjson, smp.Samples()); err != nil {
		t.Fatal(err)
	}
	var tables strings.Builder
	report.TimelineLatency(smp.Samples()).RenderTo(&tables, "csv")
	report.TimelineUtilisation(smp.Samples()).RenderTo(&tables, "csv")
	return res, ndjson.String(), tables.String()
}

// The headline guarantee: age→snapshot→restore→replay is indistinguishable
// from the uninterrupted age→replay run — Results, metrics NDJSON and
// timeline tables byte for byte — for every scheme.
func TestSnapshotDifferentialMatrix(t *testing.T) {
	for _, kind := range snapKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			reqs := smallTrace(t, 0.02)

			cont := newSnapRunner(t, kind)
			if err := cont.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			wantRes, wantMetrics, wantTables := replaySnapObserved(t, cont, reqs, 8)

			snapped := newSnapRunner(t, kind)
			if err := snapped.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			blob, err := snapped.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			restored, err := Restore(blob)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			gotRes, gotMetrics, gotTables := replaySnapObserved(t, restored, reqs, 8)
			assertIdentical(t, wantRes, gotRes, "restored")
			if gotMetrics != wantMetrics {
				t.Error("restored: metrics NDJSON differs from continuous run")
			}
			if gotTables != wantTables {
				t.Error("restored: timeline tables differ from continuous run")
			}
		})
	}
}

// Snapshots taken mid-age must resume to the same state: aging the first
// half of a trace, snapshotting, restoring and aging the second half is
// equivalent to aging the whole trace in one run.
func TestSnapshotMidAgingDifferential(t *testing.T) {
	for _, kind := range snapKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			agingReqs := smallTrace(t, 0.03)
			measure := smallTrace(t, 0.01)
			half := len(agingReqs) / 2

			cont := newSnapRunner(t, kind)
			if err := cont.AgeWithTrace(agingReqs); err != nil {
				t.Fatal(err)
			}
			wantRes, err := cont.ReplayQD(measure, 0)
			if err != nil {
				t.Fatal(err)
			}

			interrupted := newSnapRunner(t, kind)
			if err := interrupted.AgeWithTrace(agingReqs[:half]); err != nil {
				t.Fatal(err)
			}
			blob, err := interrupted.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(blob)
			if err != nil {
				t.Fatalf("Restore mid-age: %v", err)
			}
			if err := restored.AgeWithTrace(agingReqs[half:]); err != nil {
				t.Fatal(err)
			}
			gotRes, err := restored.ReplayQD(measure, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, wantRes, gotRes, "resumed-aging")
		})
	}
}

// Round-trip property: encode→decode→encode is byte-identical.
func TestSnapshotRoundTripByteEqual(t *testing.T) {
	for _, kind := range snapKinds() {
		t.Run(string(kind), func(t *testing.T) {
			r := newSnapRunner(t, kind)
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			// Replay a little traffic so caches and clocks hold
			// non-trivial state beyond what aging leaves.
			if _, err := r.ReplayQD(smallTrace(t, 0.005), 4); err != nil {
				t.Fatal(err)
			}
			b1, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(b1)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			b2, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("snapshot round trip not byte-identical (%d vs %d bytes)", len(b1), len(b2))
			}
		})
	}
}

// Restored runners keep their aged status: Age refuses to run again, and
// AgedState reports the warmed device.
func TestRestoreKeepsAgedState(t *testing.T) {
	r := newSnapRunner(t, KindFTL)
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	wantUsed, wantValid := r.AgedState()
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Age(DefaultAging()); err == nil {
		t.Error("restored runner re-aged without complaint")
	}
	gotUsed, gotValid := restored.AgedState()
	if gotUsed != wantUsed || gotValid != wantValid {
		t.Errorf("AgedState = (%v, %v), want (%v, %v)", gotUsed, gotValid, wantUsed, wantValid)
	}
}

// openers are the two entries through which untrusted snapshot bytes reach
// the simulator; whatever one rejects the other must reject too.
var openers = []struct {
	name string
	open func([]byte) error
}{
	{"Restore", func(b []byte) error { _, err := Restore(b); return err }},
	{"OpenCheckpoint", func(b []byte) error { _, err := OpenCheckpoint(b); return err }},
}

// Container-level tampering: bit flips, truncation and version skew are all
// rejected with the right typed error.
func TestRestoreRejectsTamperedContainer(t *testing.T) {
	r := newSnapRunner(t, KindFTL)
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	skewed := append([]byte(nil), blob...)
	skewed[4]++ // bump the format version's low byte

	for _, tc := range []struct {
		name string
		blob []byte
		want error // nil: any error will do
	}{
		{"bit-flipped", flipped, nil},
		{"truncated", blob[:len(blob)/3], nil},
		{"header-truncated", blob[:4], snapshot.ErrTruncated},
		{"version-skewed", skewed, snapshot.ErrVersion},
		{"garbage", []byte("not a snapshot at all"), nil},
	} {
		for _, o := range openers {
			t.Run(tc.name+"/"+o.name, func(t *testing.T) {
				err := o.open(tc.blob)
				if err == nil {
					t.Fatal("tampered snapshot accepted")
				}
				if tc.want != nil && !errors.Is(err, tc.want) {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// The tamper sweep. The body's digest is verified after the receiver was
// filled, so between a damaged payload and a runner stand the per-element
// checks, the length and overrun checks and, last, the SHA-256: one byte
// flipped per 4 KiB of a real MRSM and a real Across-FTL checkpoint — of the
// body, in the container's stored form, and of the packed payload — and a
// cut at every 4 KiB, must each come back from both openers as a typed
// refusal and never as a runner. The digest is the body's, so a flip the
// payload's form does not see would be let past: the test decodes the
// payload itself, and only when that gives the checkpoint's body byte for
// byte, for at most one flip of a sweep, may the openers open it — to the
// checkpoint's state.
func TestTamperSweepNeverYieldsARunner(t *testing.T) {
	for _, kind := range []SchemeKind{KindMRSM, KindAcross} {
		blob := agedBlob(t, kind)
		if _, err := Restore(blob); err != nil {
			t.Fatalf("%s: the untouched checkpoint does not open: %v", kind, err)
		}
		const header = 52
		body, err := bodyOf(blob)
		if err != nil {
			t.Fatal(err)
		}
		// The same body under the same digest, not packed: every payload
		// byte is a body byte.
		stored := append(bytes.Clone(blob[:header]), body...)
		stored[8] = 0
		if _, err := Restore(stored); err != nil {
			t.Fatalf("%s: the stored form of the checkpoint does not open: %v", kind, err)
		}
		refused := func(what string, damaged []byte) {
			t.Helper()
			r, err := Restore(damaged)
			cp, cerr := OpenCheckpoint(damaged)
			if r != nil || cp != nil {
				t.Fatalf("%s, %s: Restore returned %v, OpenCheckpoint %v; want neither", kind, what, r, cp)
			}
			for _, err := range []error{err, cerr} {
				if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated) {
					t.Errorf("%s, %s: err = %v, want ErrCorrupt or ErrTruncated", kind, what, err)
				}
			}
		}
		for at := header; at < len(stored); at += 4096 {
			flipped := bytes.Clone(stored)
			flipped[at] ^= 0x04
			refused(fmt.Sprintf("body byte %d of %d flipped", at-header, len(body)), flipped)
		}
		unseen := 0
		for at := header; at < len(blob); at += 4096 {
			flipped := bytes.Clone(blob)
			flipped[at] ^= 0x04
			what := fmt.Sprintf("byte %d of %d flipped", at, len(blob))
			if got, err := bodyOf(flipped); err != nil || !bytes.Equal(got, body) {
				refused(what, flipped)
				continue
			}
			unseen++
			r, err := Restore(flipped)
			cp, cerr := OpenCheckpoint(flipped)
			if err != nil || cerr != nil {
				t.Fatalf("%s, %s, and the payload spells the checkpoint's body: Restore %v, OpenCheckpoint %v", kind, what, err, cerr)
			}
			if !bytes.Equal(mustSnapshot(t, r), blob) || !bytes.Equal(mustSnapshot(t, mustFork(t, cp)), blob) {
				t.Fatalf("%s, %s: opened to a state that is not the checkpoint's", kind, what)
			}
		}
		if unseen > 1 {
			t.Errorf("%s: %d flips of the payload spell the checkpoint's body, want at most 1", kind, unseen)
		}
		for cut := 0; cut < len(blob); cut += 4096 {
			refused(fmt.Sprintf("cut at %d of %d", cut, len(blob)), blob[:cut])
		}
		refused("last byte cut", blob[:len(blob)-1])
		refused("stored form, last byte cut", stored[:len(stored)-1])
	}
}

// State-level tampering: a snapshot that decodes cleanly but violates the
// mapping/flash invariants (here: two LPNs claiming one physical page) must
// fail the automatic post-restore audit.
func TestRestoreRejectsCorruptState(t *testing.T) {
	r := newSnapRunner(t, KindFTL)
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	bl, ok := r.Scheme.(*ftl.Baseline)
	if !ok {
		t.Fatalf("scheme is %T, want *ftl.Baseline", r.Scheme)
	}
	// Aging maps LPNs sequentially, so 0 and 1 are both mapped; aliasing
	// LPN 0 onto LPN 1's page breaks the ownership bijection.
	bl.PMT.SetPPN(0, bl.PMT.PPNOf(1))
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			if err := o.open(blob); err == nil {
				t.Fatal("corrupt-state snapshot passed the post-restore audit")
			} else if !strings.Contains(err.Error(), "audit") {
				t.Errorf("err = %v, want an audit failure", err)
			}
		})
	}
}

// Fresh (un-aged) runners snapshot too — the format does not assume a
// warmed device.
func TestSnapshotFreshRunner(t *testing.T) {
	r := newSnapRunner(t, KindAcross)
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	reqs := smallTrace(t, 0.005)
	want, err := r.ReplayQD(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ReplayQD(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got, "fresh")
}
