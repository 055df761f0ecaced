package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other guests' memory
// traffic changes how fast the same code runs by 40% or more from one
// minute to the next, and CPU time does not leave that out. So every
// episode is bracketed by a fixed reference kernel, a dependent pointer
// chase through a table larger than a core's cache, whose speed
// follows that contention. Host times are reported in reference
// seconds: CPU seconds scaled by refStepNs over the chase's measured
// nanoseconds per step in the same run. A program change moves them in
// full; a machine that got slower for everything moves them much less.

const (
	// refEntries is the chase table's size: 16 MiB of uint32, four
	// times a core's L2 and far beyond its L1.
	refEntries = 4 << 20
	// refSteps is one timing of the kernel, about 50 ms.
	refSteps = 400_000
	// refStepNs is the nominal nanoseconds of one chase step: what the
	// kernel measured on an idle 2-CPU Xeon sandbox. It only fixes the
	// scale of reference seconds.
	refStepNs = 125.0
)

// refTable is the chase: one cycle through every entry. It lives
// outside the Go heap, so it neither adds to the garbage collector's
// work nor moves its pacing; refTableMB is taken off the reported RSS.
var refTable []uint32

const refTableMB = refEntries * 4 / (1 << 20)

// initRef builds the chase table (Sattolo's algorithm over a fixed
// xorshift stream, so every run chases the same cycle) and leaves it
// resident.
func initRef() error {
	mem, err := syscall.Mmap(-1, 0, refEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("reference table: %w", err)
	}
	refTable = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refEntries)
	for i := range refTable {
		refTable[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := refEntries - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		refTable[i], refTable[j] = refTable[j], refTable[i]
	}
	return nil
}

// refSink keeps the chase from being optimised away.
var refSink uint32

// refStep times refSteps steps of the chase and returns the CPU
// nanoseconds per step.
func refStep() float64 {
	t0 := cpuNow()
	i := refSink % refEntries
	for k := 0; k < refSteps; k++ {
		i = refTable[i]
	}
	refSink = i
	return float64(cpuNow()-t0) / refSteps
}

// refScale converts CPU time into reference time for a run whose
// reference steps took stepNs each (the run's median).
func refScale(stepNs float64) float64 { return refStepNs / stepNs }

// refSeconds is d in reference seconds at the given scale.
func refSeconds(d time.Duration, scale float64) float64 { return d.Seconds() * scale }
