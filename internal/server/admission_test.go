package server

import (
	"context"
	"testing"
	"time"
)

// TestSemaphoreFIFO covers the admission semaphore directly: capacity
// enforcement, FIFO wakeup within a class, and the cancellation race.
func TestSemaphoreFIFO(t *testing.T) {
	sem := newPrioritySem(0, [numClasses]int64{clsPredict: 2, clsBatch: 2, clsExplore: 2})
	if !sem.tryAcquire(clsPredict, 2) {
		t.Fatal("tryAcquire(2) on an idle semaphore failed")
	}
	if sem.tryAcquire(clsPredict, 1) {
		t.Fatal("tryAcquire over the class limit succeeded")
	}

	acquired := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			if err := sem.acquire(context.Background(), clsPredict, 1); err == nil {
				acquired <- i
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let both queue
	sem.release(clsPredict, 2)
	for i := 0; i < 2; i++ {
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter never woke")
		}
	}

	// A cancelled waiter must not consume capacity.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sem.acquire(ctx, clsPredict, 2); err == nil {
		t.Fatal("acquire with cancelled context succeeded while full")
	}
	sem.release(clsPredict, 2)
	if !sem.tryAcquire(clsPredict, 2) {
		t.Fatal("capacity lost after cancelled waiter")
	}
	sem.release(clsPredict, 2)
}

// TestSemaphorePriority pins the admission ordering the tenancy layer
// rests on: with the shared pool exhausted, an interactive predict
// waiter that queued AFTER a bulk explore waiter is granted FIRST when
// capacity frees.
func TestSemaphorePriority(t *testing.T) {
	// Total capacity 1: one holder saturates the pool.
	sem := newPrioritySem(1, [numClasses]int64{clsPredict: 1, clsBatch: 1, clsExplore: 1})
	if !sem.tryAcquire(clsExplore, 1) {
		t.Fatal("initial acquire failed")
	}

	granted := make(chan admClass, 2)
	release := make(chan admClass, 2)
	start := func(c admClass) {
		go func() {
			if err := sem.acquire(context.Background(), c, 1); err == nil {
				granted <- c
				<-release
				sem.release(c, 1)
			}
		}()
	}
	start(clsExplore) // bulk queues first...
	time.Sleep(10 * time.Millisecond)
	start(clsPredict) // ...interactive queues second
	time.Sleep(10 * time.Millisecond)

	sem.release(clsExplore, 1) // free the pool: predict must win
	var order []admClass
	for i := 0; i < 2; i++ {
		select {
		case c := <-granted:
			order = append(order, c)
			release <- c
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter never woke")
		}
	}
	if order[0] != clsPredict || order[1] != clsExplore {
		t.Errorf("grant order = %v, want [predict explore]: interactive must outrank bulk", order)
	}
}

// TestSemaphoreBulkNotStarvedByClassLimit pins the liveness side of
// priority: a predict waiter blocked purely on its own class limit
// does not idle pool capacity that a bulk waiter could use.
func TestSemaphoreBulkNotStarvedByClassLimit(t *testing.T) {
	// Predict class limit 1, plenty of total capacity.
	sem := newPrioritySem(4, [numClasses]int64{clsPredict: 1, clsBatch: 1, clsExplore: 1})
	if !sem.tryAcquire(clsPredict, 1) {
		t.Fatal("initial predict acquire failed")
	}
	// A second predict queues on its class limit (total has room).
	go sem.acquire(context.Background(), clsPredict, 1)
	time.Sleep(10 * time.Millisecond)
	// Bulk must still be admitted: the pool is not exhausted.
	if !sem.tryAcquire(clsExplore, 1) {
		t.Fatal("explore refused while predict was blocked only on its class limit")
	}
	sem.release(clsExplore, 1)
	sem.release(clsPredict, 1) // unblocks the queued predict
}
