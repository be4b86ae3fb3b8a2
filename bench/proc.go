package main

import (
	"runtime"
	"sync"
	"time"
)

// sampler tracks peak HeapInuse, resident set and goroutine count every 50 ms
// while a measured phase runs; extra, when set, is called on every tick too.
type sampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	extra func()

	heapPeak, rssPeak uint64
	goroutinesPeak    int
}

func startSampler(extra func()) *sampler {
	h := &sampler{stop: make(chan struct{}), extra: extra}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *sampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.heapPeak = max(h.heapPeak, ms.HeapInuse)
	h.rssPeak = max(h.rssPeak, rssBytes())
	h.goroutinesPeak = max(h.goroutinesPeak, runtime.NumGoroutine())
	if h.extra != nil {
		h.extra()
	}
}

// done stops the sampler and waits for it; the peaks are stable afterwards.
func (h *sampler) done() {
	close(h.stop)
	h.wg.Wait()
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNS: after.PauseTotalNs - before.PauseTotalNs,
	}
}
