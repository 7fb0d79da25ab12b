// Package gpusim simulates the GPU execution model that cuSZ-Hi targets.
//
// CUDA organizes work as a grid of thread blocks; each block owns a chunk of
// data (held in shared memory) and blocks execute independently. This package
// reproduces that decomposition with a fixed worker pool: a "kernel launch"
// enumerates block indices and runs the block body on the pool. Algorithms
// written against Device.Launch keep the exact parallel structure of the
// paper's kernels — per-block independence, sequential kernel phases — with
// goroutines standing in for streaming multiprocessors.
package gpusim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// helperIdle is how long a pooled helper goroutine waits for the next
// kernel launch before exiting. Long enough that steady-state streaming
// reuses the same goroutines across every launch; short enough that an
// abandoned Device sheds its pool promptly (the stream goroutine-leak
// tests rely on that).
const helperIdle = 200 * time.Millisecond

// Device is a simulated accelerator with a fixed degree of parallelism.
// Kernel launches run on a persistent pool of helper goroutines (plus the
// launching goroutine itself), mirroring a GPU's resident SMs: helpers are
// spawned on demand, reused across launches, and expire after helperIdle
// without work.
type Device struct {
	workers int
	tasks   chan *launchTask
	live    atomic.Int64 // helpers currently alive
	spawned atomic.Int64 // helpers ever spawned (regression-test hook)
}

// Default is the process-wide device sized to the available CPUs.
var Default = New(0)

// New returns a Device with the given worker count; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Device {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Device{workers: workers, tasks: make(chan *launchTask, workers)}
}

// Workers reports the device's parallel width.
func (d *Device) Workers() int { return d.workers }

// launchTask is one kernel launch being drained by the pool: a work-
// stealing block counter plus a completion latch. Helpers that dequeue an
// already-exhausted task return immediately, so stale tasks left in the
// channel after their launch completed are harmless.
type launchTask struct {
	blocks int
	body   func(block int)
	next   atomic.Int64
	done   atomic.Int64
	fin    chan struct{}
}

// run grabs block indices until the task is exhausted. Whoever completes
// the final block closes the latch.
func (t *launchTask) run() {
	for {
		b := int(t.next.Add(1)) - 1
		if b >= t.blocks {
			return
		}
		t.body(b)
		if int(t.done.Add(1)) == t.blocks {
			close(t.fin)
		}
	}
}

// offer hands the task to up to n pooled helpers. Helpers are ensured
// FIRST: the task channel is buffered, so a successful send proves
// nothing about anyone being alive to drain it — spawning must be driven
// by the live count, up to the n this launch wants (never more than
// workers−1; the caller is the remaining worker). The sends themselves
// are non-blocking: if every helper is busy with another launch the
// caller simply runs more of the blocks itself, so Launch can never
// deadlock on pool capacity.
func (d *Device) offer(t *launchTask, n int) {
	for {
		live := d.live.Load()
		if live >= int64(n) || live >= int64(d.workers-1) {
			break
		}
		if d.live.CompareAndSwap(live, live+1) {
			d.spawned.Add(1)
			go d.helper()
		}
	}
	for i := 0; i < n; i++ {
		select {
		case d.tasks <- t:
		default:
			return // pool saturated; the caller covers the rest
		}
	}
}

// helper is one pooled worker goroutine: it drains launch tasks until it
// has been idle for helperIdle, then exits (a later launch respawns it).
func (d *Device) helper() {
	defer d.live.Add(-1)
	idle := time.NewTimer(helperIdle)
	defer idle.Stop()
	for {
		select {
		case t := <-d.tasks:
			t.run()
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(helperIdle)
		case <-idle.C:
			return
		}
	}
}

// Launch runs body(block) for every block index in [0, blocks), distributing
// blocks across the worker pool. It corresponds to a CUDA kernel launch with
// a 1-D grid and returns when all blocks have completed (implicit device
// synchronization). Concurrent launches on one Device share its helper
// pool; each launching goroutine also executes blocks itself.
func (d *Device) Launch(blocks int, body func(block int)) {
	if blocks <= 0 {
		return
	}
	nw := d.workers
	if nw > blocks {
		nw = blocks
	}
	if nw <= 1 {
		for b := 0; b < blocks; b++ {
			body(b)
		}
		return
	}
	t := &launchTask{blocks: blocks, body: body, fin: make(chan struct{})}
	d.offer(t, nw-1)
	t.run()
	<-t.fin
}

// LaunchChunks splits n items into contiguous chunks of at most chunk items
// and runs body(lo, hi) per chunk in parallel. It is the 1-D "grid-stride"
// pattern used by the encoding kernels.
func (d *Device) LaunchChunks(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = (n + d.workers - 1) / d.workers
		if chunk == 0 {
			chunk = 1
		}
	}
	blocks := (n + chunk - 1) / chunk
	if d.workers <= 1 || blocks <= 1 {
		// Inline path: no adapter closure is constructed, so single-worker
		// devices (the zero-alloc warm-context configuration) launch chunked
		// kernels without touching the heap.
		for b := 0; b < blocks; b++ {
			lo := b * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		return
	}
	d.Launch(blocks, func(b int) {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
}

// LaunchBatched is LaunchChunks with lane-aligned chunk boundaries: chunk is
// rounded up to a multiple of lanes, so every span handed to body starts at
// a lanes multiple and only the global tail ends unaligned. Batched kernels
// written as "wide groups of `lanes` items + scalar tail" can therefore
// assume no wide group ever straddles a span boundary, letting the pooled-
// goroutine simulated-GPU path and the plain CPU path (workers == 1, body
// runs inline on the caller) share one kernel implementation.
func (d *Device) LaunchBatched(n, chunk, lanes int, body func(lo, hi int)) {
	if lanes > 1 {
		if chunk <= 0 {
			chunk = (n + d.workers - 1) / d.workers
		}
		chunk = (chunk + lanes - 1) / lanes * lanes
	}
	d.LaunchChunks(n, chunk, body)
}

// Reduce computes a parallel reduction of per-block partial results.
// body(block) returns a partial value; combine folds partials together.
// Partials are combined in block order, so non-commutative combines are safe.
func Reduce[T any](d *Device, blocks int, body func(block int) T, combine func(a, b T) T) T {
	var zero T
	if blocks <= 0 {
		return zero
	}
	partial := make([]T, blocks)
	d.Launch(blocks, func(b int) { partial[b] = body(b) })
	acc := partial[0]
	for _, p := range partial[1:] {
		acc = combine(acc, p)
	}
	return acc
}
