//go:build !amd64

package flash

import "unsafe"

// Prefetch is a no-op on this architecture: the hint is an optimisation,
// and skipping it changes only how long a later load waits.
func Prefetch(p unsafe.Pointer) {}
