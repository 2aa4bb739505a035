package flash

import "unsafe"

// Prefetch hints the CPU to pull the cache line holding *p toward L1 and
// returns at once: PREFETCHT0, which neither faults nor waits on the miss.
// It reads nothing a caller could observe, so a hint can never change what
// the simulator computes, only how long a later load of the line waits.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
