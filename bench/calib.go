package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The calibration kernel defines the unit `cal` every end-to-end timing
// except setup_s is expressed in: one cal is the median duration of
// calSample. On a shared host, raw throughput drifts by tens of percent
// between runs, while run time divided by this kernel's time, measured
// in the same loop, stays within a few percent. The kernel is part of
// the benchmark's definition: changing any constant below changes the
// unit and needs a new baseline.
//
// It has a compute part (hash and sort) and a memory part (map probes).
// When a neighbour slowed the host, an interpreter run slowed more than
// the compute part and less than the memory part; their sum tracked it
// within 3% where the compute part alone was off by up to 16%.
const (
	calBufBytes = 16 << 10
	calPermLen  = 2048
	calMapKeys  = 4096
)

var (
	calBuf     [calBufBytes]byte
	calPerm    [calPermLen]int
	calScratch [calPermLen]int
	calKeys    [calMapKeys]int
	calMap     = make(map[int]int, calMapKeys)
	calSink    int
)

func init() {
	// Fixed contents from a fixed linear congruential sequence; the
	// permutation is a Fisher-Yates shuffle of 0..calPermLen-1.
	x := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 17
	}
	for i := range calBuf {
		calBuf[i] = byte(next())
	}
	for i := range calPerm {
		calPerm[i] = i
	}
	for i := len(calPerm) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		calPerm[i], calPerm[j] = calPerm[j], calPerm[i]
	}
	for i := range calKeys {
		calKeys[i] = int(next())
		calMap[calKeys[i]] = i
	}
}

// calSample runs the kernel once and returns its duration. It does not
// allocate: it hashes a fixed buffer, copies a fixed permutation into a
// preallocated slice and sorts it, and reads and rewrites every entry
// of a fixed map, touching only package-level data.
func calSample() time.Duration {
	start := time.Now()
	sum := sha256.Sum256(calBuf[:])
	copy(calScratch[:], calPerm[:])
	sort.Ints(calScratch[:])
	s := 0
	for _, k := range calKeys {
		s += calMap[k]
		calMap[k] = s & 0xffff
	}
	d := time.Since(start)
	calSink ^= int(sum[0]) ^ calScratch[calPermLen-1] ^ s
	return d
}
