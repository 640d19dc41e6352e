// Package runner executes independent simulation cells across a bounded
// worker pool. Every paper artifact is a grid of fully independent
// deterministic simulations — (approach × app × node-count × slice)
// cells — so the experiment drivers fan their cells through Map/Grid
// instead of looping serially. Results always come back in submission
// order, and each cell builds its own cluster from an explicit seed, so
// the rendered tables are byte-identical to a serial run regardless of
// worker count or scheduling interleaving.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"atcsched/internal/rng"
)

// defaultWorkers is the pool width used when a call does not override
// it; 0 means "use GOMAXPROCS". It is set once at startup from the
// -parallel flag (or SetDefaultWorkers in tests) and read atomically so
// concurrent experiment runs see a consistent value.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the pool width used by Map and Grid. n <= 0
// restores the default (GOMAXPROCS). Safe for concurrent use.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the effective pool width: the value installed
// by SetDefaultWorkers, or GOMAXPROCS when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// cells counts every cell executed through the package since process
// start, for end-of-run observability (cmd/experiments prints it).
var cells atomic.Uint64

// Cells returns the total number of cells executed so far.
func Cells() uint64 { return cells.Load() }

// Seed derives a deterministic per-cell seed from a base seed and the
// cell's grid coordinates (SplitMix64 mixing). Distinct coordinates
// yield independent streams; the same (base, coords) always yields the
// same seed, so a sweep that wants uncorrelated per-cell randomness
// stays reproducible under any worker count.
func Seed(base uint64, coords ...int) uint64 {
	x := base
	for _, c := range coords {
		x = rng.SplitMix64(x ^ rng.SplitMix64(uint64(c)+0x9e3779b97f4a7c15))
	}
	return rng.SplitMix64(x)
}

// Map runs fn(0..n-1) across the default worker pool and returns the
// results indexed by input, i.e. in submission order. When several
// cells fail, the error of the lowest index wins, so error reporting is
// as deterministic as the results. A panic in any cell is re-raised on
// the calling goroutine after the pool drains.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(DefaultWorkers(), n, fn)
}

// MapN is Map with an explicit worker count. workers <= 1 runs the
// cells serially on the calling goroutine (no pool overhead, and a
// genuinely serial execution for equivalence testing).
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative cell count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			cells.Add(1)
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Label each worker goroutine so CPU/mutex profiles of an
		// experiment sweep attribute samples to the pool and its cells.
		labels := pprof.Labels("pool", "runner-worker", "worker", strconv.Itoa(w))
		go pprof.Do(context.Background(), labels, func(context.Context) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cells.Add(1)
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					out[i], errs[i] = fn(i)
				}()
			}
		})
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Grid runs fn over a rows×cols grid through the default pool and
// returns results indexed [row][col]. Cells are independent; rows of
// the result are in submission order like Map.
func Grid[T any](rows, cols int, fn func(r, c int) (T, error)) ([][]T, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("runner: negative grid %dx%d", rows, cols)
	}
	flat, err := Map(rows*cols, func(i int) (T, error) {
		return fn(i/cols, i%cols)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return out, nil
}
