package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, 3, 1000} {
				hits := make([]atomic.Int32, n)
				if err := Run(n, func(i int) error { hits[i].Add(1); return nil }); err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("n=%d: index %d ran %d times", n, i, got)
					}
				}
			}
		})
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			errAt := map[int]error{17: errors.New("17"), 400: errors.New("400"), 999: errors.New("999")}
			err := Run(1000, func(i int) error { return errAt[i] })
			if err != errAt[17] {
				t.Errorf("Run = %v, want the error of index 17", err)
			}
		})
	}
}
