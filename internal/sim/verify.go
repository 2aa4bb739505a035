package sim

import "across/internal/check"

// Checker returns the installed checker (nil if none).
func (r *Runner) Checker() *check.Checker { return r.checker }

// EnableChecks builds a checker for the runner's scheme, installs it to be
// driven by subsequent replays, and returns it. The scheme must support
// auditing (all the repository's schemes do). Like the tracer, verification is observation only — a checked
// replay produces a bit-identical Result to an unchecked one (the
// metamorphic tests assert this) — and a runner without a checker pays one
// branch per request and zero allocations.
func (r *Runner) EnableChecks(opts check.Options) (*check.Checker, error) {
	c, err := check.New(r.Scheme, opts)
	if err != nil {
		return nil, err
	}
	r.checker = c
	return c, nil
}
