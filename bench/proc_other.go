//go:build !linux

package main

// The benchmark reads process CPU time and the resident set through Linux
// interfaces (getrusage, /proc/self/statm); elsewhere it builds, so that the
// unit tests run, and refuses to measure.
const measurable = false

func cpuNS() int64     { return 0 }
func rssBytes() uint64 { return 0 }
