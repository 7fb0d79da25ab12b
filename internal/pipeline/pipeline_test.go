package pipeline

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		got, err := MapWorker(workers, 50, func(_, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapWorker[int](4, 0, func(_, _ int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapWorker(4, 100, func(_, i int) (int, error) {
		if i == 17 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapStopsAfterError(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := MapWorker(2, 1000, func(_, i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Workers stop claiming new jobs once an error lands; with 2 workers
	// at most a handful of jobs were already in flight.
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("ran all %d jobs despite early error", n)
	}
}

func TestPoolOrderedDelivery(t *testing.T) {
	p := New[string](4, 3)
	done := make(chan error, 1)
	const n = 64
	go func() {
		for i := 0; i < n; i++ {
			v, err, ok := p.Next()
			if !ok || err != nil {
				done <- fmt.Errorf("next %d: ok=%v err=%v", i, ok, err)
				return
			}
			if want := fmt.Sprintf("job-%d", i); v != want {
				done <- fmt.Errorf("out of order: got %q want %q", v, want)
				return
			}
		}
		if _, _, ok := p.Next(); ok {
			done <- errors.New("Next ok after drain")
			return
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func() (string, error) { return fmt.Sprintf("job-%d", i), nil })
	}
	p.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.Wait()
}

func TestPoolErrorPassthrough(t *testing.T) {
	p := New[int](2, 0)
	boom := errors.New("boom")
	p.Submit(func() (int, error) { return 1, nil })
	p.Submit(func() (int, error) { return 0, boom })
	p.Close()
	v, err, ok := p.Next()
	if !ok || err != nil || v != 1 {
		t.Fatalf("first: %v %v %v", v, err, ok)
	}
	if _, err, ok := p.Next(); !ok || !errors.Is(err, boom) {
		t.Fatalf("second: err=%v ok=%v", err, ok)
	}
	p.Wait()
}
