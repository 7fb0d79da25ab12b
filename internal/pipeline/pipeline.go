// Package pipeline provides the concurrency plumbing behind the chunked
// streaming compressor: a bounded worker pool that executes jobs in
// parallel but delivers their results strictly in submission order.
//
// Ordered delivery is what lets the stream framer overlap shard compression
// with output: shard k+1..k+backlog compress on the pool while shard k's
// frame is being written, yet the container bytes come out deterministic
// and sequential. The same pool drives chunk-parallel decompression.
package pipeline

import (
	"fmt"
	"sync"
)

type result[T any] struct {
	v   T
	err error
}

type job[T any] struct {
	fn  func() (T, error)
	out chan result[T]
}

// Pool runs submitted jobs on a fixed set of workers and hands results back
// in the order the jobs were submitted. Submit blocks once more than
// `backlog` jobs are in flight, bounding memory for streaming use.
//
// Submit and Next may be called from different goroutines (the streaming
// writer submits from Write and collects from a flusher goroutine), but
// each must be called from a single goroutine at a time.
type Pool[T any] struct {
	jobs    chan job[T]
	pending chan chan result[T]
	wg      sync.WaitGroup
	closed  bool
}

// New returns a Pool with the given parallel width and in-flight bound.
// workers <= 0 selects 1; backlog <= 0 selects 2*workers.
func New[T any](workers, backlog int) *Pool[T] {
	if workers <= 0 {
		workers = 1
	}
	if backlog <= 0 {
		backlog = 2 * workers
	}
	p := &Pool[T]{
		jobs:    make(chan job[T], backlog),
		pending: make(chan chan result[T], backlog),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				v, err := j.fn()
				j.out <- result[T]{v, err}
			}
		}()
	}
	return p
}

// Submit enqueues fn. It blocks while the in-flight backlog is full.
func (p *Pool[T]) Submit(fn func() (T, error)) {
	out := make(chan result[T], 1)
	p.pending <- out
	p.jobs <- job[T]{fn, out}
}

// Next returns the result of the oldest submitted job that has not yet been
// collected, blocking until it completes. ok is false when the pool is
// closed and every result has been drained.
func (p *Pool[T]) Next() (v T, err error, ok bool) {
	out, open := <-p.pending
	if !open {
		return v, nil, false
	}
	r := <-out
	return r.v, r.err, true
}

// Close marks the job stream complete. After every submitted result has
// been collected with Next, Next reports ok=false. Close must be called
// by the submitting goroutine; submitting after Close panics.
func (p *Pool[T]) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.jobs)
	close(p.pending)
}

// Wait blocks until all workers have exited. Call after Close.
func (p *Pool[T]) Wait() { p.wg.Wait() }

// MapWorker runs fn(worker, 0..n-1) on up to `workers` goroutines and
// returns the results in index order. The first error wins and is returned
// after all in-flight jobs settle; results are then invalid. fn also
// receives the executing worker's slot id in [0, workers): jobs running
// concurrently always see distinct slots, so callers can maintain
// per-worker state (codec contexts, scratch arenas) without locking. The
// slot count it passes never exceeds min(workers, n).
func MapWorker[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("pipeline: negative job count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				v, err := fn(worker, i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
