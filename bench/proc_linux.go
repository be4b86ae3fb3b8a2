package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// measurable says the process clocks below exist on this platform.
const measurable = true

// cpuNS is the process's user+system CPU time so far. Server and load
// generator share the process, so both are in it.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssBytes is the process's resident set right now: the second field of
// /proc/self/statm, in pages. ru_maxrss would be the peak since the process
// began, which set-up reaches and the measured phase cannot move.
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return pages * uint64(os.Getpagesize())
}
