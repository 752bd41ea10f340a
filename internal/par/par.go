// Package par provides the chunked work-stealing scaffold shared by the
// parallel hot paths of this repository (the linkage engine, the blocking
// baselines, and the service layer).
//
// The model is deliberately simple: a slice of items is cut into
// fixed-size chunks, an atomic cursor hands chunk indices to idle worker
// goroutines, each chunk's results land in a dedicated slot, and the
// slots are concatenated in chunk order. Because the concatenation order
// is the input order, the output is exactly what the serial loop would
// produce — parallelism never changes results, only wall time.
// ReduceChunks instead gives each worker one contiguous run of the
// items and merges the runs in order, for the same guarantee.
//
// Cancellation is cooperative: workers observe the context between
// chunks, so a cancelled context stops the fan-out within one chunk of
// work per worker.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunk is the chunk size used when a caller passes chunk <= 0.
// Small enough that uneven per-item costs still balance across workers,
// large enough that the atomic cursor is not contended.
const DefaultChunk = 64

// Workers resolves a worker-count setting: n > 0 is used as-is, anything
// else means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// MapChunks applies fn to every item, keeping the results fn reports true
// for, preserving input order in the output. With workers > 1 and more
// than one chunk of items the work fans out across goroutines; output is
// identical for every worker count.
//
// A nil ctx or context.Background() disables cancellation. When ctx is
// cancelled mid-run the already-claimed chunks finish, the remaining
// chunks are skipped, and ctx.Err() is returned with a nil slice.
func MapChunks[T, R any](ctx context.Context, workers, chunk int, items []T, fn func(T) (R, bool)) ([]R, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	workers = Workers(workers)
	if workers == 1 || len(items) <= chunk {
		var out []R
		for i, it := range items {
			// Poll at chunk granularity so serial cancellation matches the
			// parallel path's responsiveness.
			if ctx != nil && i%chunk == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if r, ok := fn(it); ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
	nChunks := (len(items) + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	results := make([][]R, nChunks)
	var cursor atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx != nil && ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > len(items) {
					hi = len(items)
				}
				var rs []R
				for _, it := range items[lo:hi] {
					if r, ok := fn(it); ok {
						rs = append(rs, r)
					}
				}
				results[c] = rs
			}
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	if total == 0 {
		// Match the serial path, which returns a nil slice when nothing
		// is kept, so callers comparing outputs across worker counts see
		// identical values.
		return nil, nil
	}
	out := make([]R, 0, total)
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out, nil
}

// ReduceChunks folds items into one accumulator per worker in parallel
// and merges the workers' accumulators in input order: newAcc creates
// an empty accumulator, fold absorbs one item and returns the (possibly
// replaced) accumulator, merge absorbs the right accumulator into the
// left and returns the result. Each worker folds one contiguous run of
// the items, and the runs are merged left to right, so any fold whose
// merge is associative produces exactly the serial fold's result — and
// commutative reductions (counting maps, sums) are deterministic at
// every worker count by construction. One accumulator per worker, not
// per chunk, keeps a counting map's allocation near that of the serial
// fold.
//
// Cancellation follows MapChunks: workers check ctx once per chunk of
// items, and when ctx is cancelled mid-run ctx.Err() is returned with
// the zero accumulator.
func ReduceChunks[T, A any](ctx context.Context, workers, chunk int, items []T, newAcc func() A, fold func(A, T) A, merge func(A, A) A) (A, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	workers = Workers(workers)
	if workers == 1 || len(items) <= chunk {
		acc := newAcc()
		for i, it := range items {
			if ctx != nil && i%chunk == 0 {
				if err := ctx.Err(); err != nil {
					var zero A
					return zero, err
				}
			}
			acc = fold(acc, it)
		}
		return acc, nil
	}
	if nChunks := (len(items) + chunk - 1) / chunk; workers > nChunks {
		workers = nChunks
	}
	accs := make([]A, workers)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		run := items[len(items)*w/workers : len(items)*(w+1)/workers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := newAcc()
			for i, it := range run {
				if ctx != nil && i%chunk == 0 && ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				acc = fold(acc, it)
			}
			accs[w] = acc
		}()
	}
	wg.Wait()
	if cancelled.Load() {
		var zero A
		return zero, ctx.Err()
	}
	out := accs[0]
	for _, acc := range accs[1:] {
		out = merge(out, acc)
	}
	return out, nil
}
