package gpusim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLaunchCoversAllBlocks(t *testing.T) {
	d := New(4)
	seen := make([]atomic.Int32, 1000)
	d.Launch(len(seen), func(b int) { seen[b].Add(1) })
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("block %d executed %d times", i, got)
		}
	}
}

func TestLaunchZeroAndNegative(t *testing.T) {
	d := New(2)
	ran := false
	d.Launch(0, func(int) { ran = true })
	d.Launch(-5, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for empty launch")
	}
}

func TestLaunchSingleWorkerSequential(t *testing.T) {
	d := New(1)
	var order []int
	d.Launch(10, func(b int) { order = append(order, b) })
	for i, b := range order {
		if i != b {
			t.Fatalf("single-worker launch out of order: %v", order)
		}
	}
}

func TestLaunchChunks(t *testing.T) {
	d := New(4)
	n := 1003
	mark := make([]atomic.Int32, n)
	d.LaunchChunks(n, 17, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			mark[i].Add(1)
		}
	})
	for i := range mark {
		if mark[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, mark[i].Load())
		}
	}
}

func TestLaunchChunksAutoChunk(t *testing.T) {
	d := New(8)
	var total atomic.Int64
	d.LaunchChunks(100, 0, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 100 {
		t.Fatalf("covered %d, want 100", total.Load())
	}
}

func TestReduceOrdered(t *testing.T) {
	d := New(4)
	// Non-commutative combine (string concat) must respect block order.
	got := Reduce(d, 5, func(b int) string { return string(rune('a' + b)) },
		func(a, b string) string { return a + b })
	if got != "abcde" {
		t.Fatalf("Reduce = %q, want abcde", got)
	}
}

func TestReduceSum(t *testing.T) {
	d := New(7)
	got := Reduce(d, 1000, func(b int) int { return b }, func(a, b int) int { return a + b })
	if got != 999*1000/2 {
		t.Fatalf("Reduce sum = %d", got)
	}
}

func TestDefaultDevice(t *testing.T) {
	if Default.Workers() < 1 {
		t.Fatal("default device has no workers")
	}
}

// TestLaunchReusesPoolGoroutines is the persistent-pool regression test: a
// burst of back-to-back launches must be served by reused helper
// goroutines, not one spawn wave per launch (the pre-pool behavior spawned
// workers−1 goroutines on every Launch).
func TestLaunchReusesPoolGoroutines(t *testing.T) {
	d := New(4)
	const launches = 200
	for i := 0; i < launches; i++ {
		var n atomic.Int64
		d.Launch(64, func(int) { n.Add(1) })
		if n.Load() != 64 {
			t.Fatalf("launch %d ran %d of 64 blocks", i, n.Load())
		}
	}
	// Helpers may be respawned a handful of times if the scheduler lets one
	// idle out mid-burst, but anything near one spawn wave per launch means
	// pooling is broken.
	if spawned := d.spawned.Load(); spawned > int64(4*d.workers) {
		t.Fatalf("%d launches spawned %d helper goroutines, want ≈ %d reused helpers",
			launches, spawned, d.workers-1)
	}
	if live := d.live.Load(); live > int64(d.workers-1) {
		t.Fatalf("%d helpers alive, cap is %d", live, d.workers-1)
	}
}

// TestHelpersExpireWhenIdle: an abandoned Device must shed its helper
// goroutines after the idle window rather than pinning them forever.
func TestHelpersExpireWhenIdle(t *testing.T) {
	d := New(4)
	d.Launch(256, func(int) {})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.live.Load() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%d helpers still alive after idle window", d.live.Load())
}

// TestConcurrentLaunchesShareDevice: many goroutines launching on one
// Device must all complete correctly (the pool is shared, and each caller
// participates in its own launch).
func TestConcurrentLaunchesShareDevice(t *testing.T) {
	d := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var n atomic.Int64
				d.Launch(37, func(int) { n.Add(1) })
				if n.Load() != 37 {
					t.Errorf("ran %d of 37 blocks", n.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLaunchBatchedAlignment(t *testing.T) {
	d := New(4)
	for _, tc := range []struct{ n, chunk, lanes int }{
		{1000, 37, 8}, {1000, 0, 8}, {5, 64, 8}, {1000, 16, 1}, {1000, 37, 0}, {0, 8, 8},
	} {
		var mu sync.Mutex
		covered := make([]bool, tc.n)
		d.LaunchBatched(tc.n, tc.chunk, tc.lanes, func(lo, hi int) {
			if tc.lanes > 1 && lo%tc.lanes != 0 {
				t.Errorf("n=%d chunk=%d lanes=%d: span start %d unaligned", tc.n, tc.chunk, tc.lanes, lo)
			}
			if tc.lanes > 1 && hi%tc.lanes != 0 && hi != tc.n {
				t.Errorf("n=%d chunk=%d lanes=%d: interior span end %d unaligned", tc.n, tc.chunk, tc.lanes, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("index %d covered twice", i)
				}
				covered[i] = true
			}
			mu.Unlock()
		})
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d chunk=%d lanes=%d: index %d missed", tc.n, tc.chunk, tc.lanes, i)
			}
		}
	}
}
