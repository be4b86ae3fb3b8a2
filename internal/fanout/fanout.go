// Package fanout is the repository's one parallel loop. World building
// (population.Materialize's keys, zone.Sign's RRSIGs) runs its independent
// key generations and signatures through it, one goroutine per processor.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines and
// returns the error of the lowest i that failed, or nil. The calls must be
// independent; every i runs even after one fails.
func Run(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstAt  = n
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstAt {
						firstErr, firstAt = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
