package across_test

import (
	"os"
	"strings"
	"testing"
)

// TestResultsDrift is the drift gate of the checked-in result records: each
// file must be exactly what cmd/experiments prints today for the flags that
// produced it, less the wall-clock "completed in" line. Any change to a
// simulated figure — a model change, or a refactor that moved something it
// should not have — fails here; a deliberate one regenerates the file with
// the same command.
func TestResultsDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"results_default.txt", []string{"-ext"}},
		{"results_scale020.txt", []string{"-scale", "0.2"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			got := runCmd(t, append([]string{"./cmd/experiments"}, tc.args...)...)
			diffLines(t, "go run ./cmd/experiments "+strings.Join(tc.args, " "), tc.file,
				withoutWallClock(got), withoutWallClock(string(want)))
		})
	}
}

// withoutWallClock splits a harness report into lines and drops the
// "completed in" timing line, the one line that differs run to run.
func withoutWallClock(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "completed in ") {
			out = append(out, line)
		}
	}
	return out
}

// diffLines fails the test at the first line where got departs from want,
// showing a few lines of context from each side.
func diffLines(t *testing.T, gotName, wantName string, got, want []string) {
	t.Helper()
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	if i == len(got) && i == len(want) {
		return
	}
	window := func(lines []string) string {
		lo, hi := max(i-2, 0), min(i+3, len(lines))
		return strings.Join(lines[lo:hi], "\n")
	}
	t.Errorf("%s departs from %s at line %d (%d vs %d lines):\n--- %s\n%s\n+++ %s\n%s\n"+
		"if the change is meant, regenerate %s with the same command",
		gotName, wantName, i+1, len(got), len(want), wantName, window(want), gotName, window(got), wantName)
}
