// Package mutants holds the catalogue of model mutants the suite must kill:
// one-token changes to the model, each with the unit test expected to fail
// under it. TestCatalogueApplies, in tier-1, checks only that every entry
// still applies. TestMutantsAreKilled applies each entry through a build
// overlay and runs its killing test; it is slow, so it runs only when named:
//
//	go test -count=1 -run '^TestMutantsAreKilled$' ./internal/mutants
package mutants

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one entry of the catalogue.
type mutant struct {
	file        string // relative to the module root
	original    string // occurs exactly once in file
	replacement string
	pkg         string // the killing test's package, as go test names it
	test        string
}

var catalogue = []mutant{
	{
		// An erase charges only the plane's debt before it, so a plane
		// still below threshold afterwards loses its whole debt.
		file:        "internal/ftl/alloc.go",
		original:    "a.debt += a.planeDebt(st.freePages) - a.planeDebt(before)",
		replacement: "a.debt += 0 - a.planeDebt(before)",
		pkg:         "./internal/sim",
		test:        "TestGCDebtRunningTotal",
	},
	{
		// An across-page write covering its areas supersedes them instead
		// of taking AMerge or ARollback.
		file:        "internal/acrossftl/write.go",
		original:    "case coveredAll && !isAcross:",
		replacement: "case coveredAll:",
		pkg:         "./internal/acrossftl",
		test:        "TestCoveringAcrossWriteDoesNotSupersede",
	},
	{
		// A dirty tree node is checkpointed one update past its budget.
		file:        "internal/mrsm/mrsm.go",
		original:    "s.nodeDirty[node] >= maxNodeDirty {",
		replacement: "s.nodeDirty[node] > maxNodeDirty {",
		pkg:         "./internal/mrsm",
		test:        "TestDirtyNodeFlushesOnItsBudget",
	},
	{
		// A partial write's RMW read starts before its demand-paged map
		// entry has been loaded.
		file:        "internal/ftl/base.go",
		original:    "rdone, err := b.Dev.Read(old, ready, OpData)",
		replacement: "rdone, err := b.Dev.Read(old, now, OpData)",
		pkg:         "./internal/ftl",
		test:        "TestDFTLRMWReadWaitsForItsMapLoad",
	},
	{
		// A write's map lookup leaves its translation page clean, so a
		// demand-paged table never writes an update back.
		file:        "internal/ftl/base.go",
		original:    "b.pmt.Touch(ps.LPN, true, now)",
		replacement: "b.pmt.Touch(ps.LPN, false, now)",
		pkg:         "./internal/ftl",
		test:        "TestDFTLSpillsUnderCachePressure",
	},
	{
		// A demand-paged table writes back its clean victims and drops its
		// dirty ones.
		file:        "internal/ftl/paged.go",
		original:    "if evicted && victimDirty {",
		replacement: "if evicted && !victimDirty {",
		pkg:         "./internal/cache",
		test:        "TestCMTDirtyEvictionRequiresFlush",
	},
	{
		// The page-mapped write reads the old page for a full slice and
		// not for a partial one.
		file:        "internal/ftl/base.go",
		original:    "old != flash.NilPPN && !ps.Full(b.SPP)",
		replacement: "old != flash.NilPPN && ps.Full(b.SPP)",
		pkg:         "./internal/ftl",
		test:        "TestBaselineAlignedWriteNoRMW",
	},
}

// root is the module root, relative to this package's directory.
const root = "../.."

func (m mutant) String() string {
	return fmt.Sprintf("%s: %q -> %q", m.file, m.original, m.replacement)
}

// apply returns m's file with the mutant in it.
func (m mutant) apply() ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.original)); n != 1 {
		return nil, fmt.Errorf("%s: the original text occurs %d times, want once", m, n)
	}
	return bytes.Replace(src, []byte(m.original), []byte(m.replacement), 1), nil
}

// TestCatalogueApplies: every entry's original text occurs exactly once in
// its file, and its killing test is still defined in its package.
func TestCatalogueApplies(t *testing.T) {
	for _, m := range catalogue {
		if _, err := m.apply(); err != nil {
			t.Error(err)
		}
		tests, err := filepath.Glob(filepath.Join(root, m.pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined := false
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			defined = defined || bytes.Contains(src, []byte("\nfunc "+m.test+"(t *testing.T) {"))
		}
		if !defined {
			t.Errorf("%s: no %s in %s", m, m.test, m.pkg)
		}
	}
}

// TestMutantsAreKilled writes each mutated file and an overlay naming it,
// runs the entry's killing test with GOFLAGS=-overlay=… (so a test that
// builds or runs a binary sees the mutant too), and fails if that test
// passes or does not run to a failure of its own.
func TestMutantsAreKilled(t *testing.T) {
	if run := flag.Lookup("test.run").Value.String(); !strings.Contains(run, "TestMutantsAreKilled") {
		t.Skip("runs one go test per mutant; name it with -run to run it")
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range catalogue {
		mutated, err := m.apply()
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(t.TempDir(), filepath.Base(m.file))
		if err := os.WriteFile(file, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(abs, m.file): file}})
		if err != nil {
			t.Fatal(err)
		}
		overlayFile := filepath.Join(t.TempDir(), fmt.Sprintf("overlay-%d.json", i))
		if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "test", "-count=1", "-run", "^"+m.test+"$", m.pkg)
		cmd.Dir = abs
		cmd.Env = append(os.Environ(), "GOFLAGS=-overlay="+overlayFile)
		out, err := cmd.CombinedOutput()
		switch {
		case err == nil:
			t.Errorf("%s survives %s %s", m, m.pkg, m.test)
		case !bytes.Contains(out, []byte("--- FAIL: "+m.test)):
			t.Errorf("%s: %s %s did not run to a failure (%v):\n%s", m, m.pkg, m.test, err, out)
		default:
			t.Logf("killed %s by %s %s", m, m.pkg, m.test)
		}
	}
}
