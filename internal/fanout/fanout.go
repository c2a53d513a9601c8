// Package fanout runs many independent, index-addressed jobs on a
// bounded set of goroutines and hands them back in index order. It is
// the one ordered fan-out of the repo: the Figure 11 sweep, the what-if
// engine and the daemon's batch and what-if endpoints all solve a list
// of independent steady-state instances and must produce output that
// does not depend on the worker count or on completion order.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered runs do(i) for every i in [0, n) on min(workers, n)
// goroutines (workers < 1 means runtime.GOMAXPROCS(0)), which claim
// indices in increasing order from one shared cursor. start runs once
// on each goroutine, before its first claim, and returns that
// goroutine's do: the place to build per-goroutine scratch such as an
// evaluator or a private graph copy. n <= 0 returns at once, without
// calling start.
//
// emit(i) runs on the caller's goroutine, in increasing i, as soon as
// do(i) and every do(j) with j < i have returned. Workers never wait
// for emit, so a slow emit (a client write) delays only the emits after
// it. Ordered returns once every worker has exited and every index has
// been emitted.
//
// A panic in start or do stops further claims and is re-raised, with
// its original value, on the caller's goroutine once every other
// worker has exited; the indices emitted by then are exactly those
// below the lowest index that never finished.
func Ordered(n, workers int, start func() func(i int), emit func(i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		failure   any
	)
	// Sized to the number of sends, so a worker never blocks on the
	// caller.
	done := make(chan int, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { failure = p })
					next.Store(int64(n)) // stop the other workers' claims
				}
			}()
			do := start()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
				done <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	landed := make([]bool, n)
	emitted := 0
	for i := range done {
		landed[i] = true
		for ; emitted < n && landed[emitted]; emitted++ {
			emit(emitted)
		}
	}
	// close(done) follows wg.Wait, so failure is safe to read here.
	if failure != nil {
		panic(failure)
	}
}
