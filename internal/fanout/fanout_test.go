package fanout

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the current goroutine's ID, parsed from its stack
// header ("goroutine 17 [running]:"). Test-only: it lets the tests
// check which goroutine a callback ran on.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestOrderedEmitsInIndexOrder makes the workers finish in reverse
// index order (do(i) waits for do(i+1)) and checks that emits still
// come 0..n-1, each after its own do, and only on the caller's
// goroutine.
func TestOrderedEmitsInIndexOrder(t *testing.T) {
	const n = 8
	caller := goid()
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var doneFlags [n]atomic.Bool
	var order []int
	Ordered(n, n, func() func(int) {
		return func(i int) {
			<-finished[i+1]
			doneFlags[i].Store(true)
			close(finished[i])
		}
	}, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("emit(%d) ran on goroutine %d, caller is %d", i, g, caller)
		}
		if !doneFlags[i].Load() {
			t.Errorf("emit(%d) before do(%d) returned", i, i)
		}
		order = append(order, i)
	})
	if len(order) != n {
		t.Fatalf("emitted %v, want 0..%d", order, n-1)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emitted %v, want 0..%d in order", order, n-1)
		}
	}
}

// TestOrderedStartPerGoroutine checks that start runs exactly once on
// each of min(workers, n) distinct goroutines, that workers < 1 means
// GOMAXPROCS, and that every index is done exactly once.
func TestOrderedStartPerGoroutine(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, workers, want int }{
		{n: 10, workers: 3, want: 3},
		{n: 3, workers: 8, want: 3},
		{n: 1, workers: 1, want: 1},
		{n: procs + 3, workers: 0, want: procs},
		{n: procs + 3, workers: -1, want: procs},
	} {
		var (
			mu      sync.Mutex
			starts  = map[int64]int{}
			counts  = make([]atomic.Int32, tc.n)
			entered sync.WaitGroup
		)
		// Every worker waits in start until all expected workers have
		// started, so an early finisher cannot leave a goroutine idle.
		entered.Add(tc.want)
		Ordered(tc.n, tc.workers, func() func(int) {
			mu.Lock()
			starts[goid()]++
			mu.Unlock()
			entered.Done()
			entered.Wait()
			return func(i int) { counts[i].Add(1) }
		}, func(int) {})
		if len(starts) != tc.want {
			t.Errorf("n=%d workers=%d: start ran on %d goroutines, want %d", tc.n, tc.workers, len(starts), tc.want)
		}
		for g, c := range starts {
			if c != 1 {
				t.Errorf("n=%d workers=%d: start ran %d times on goroutine %d", tc.n, tc.workers, c, g)
			}
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("n=%d workers=%d: do(%d) ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestOrderedEmpty checks that n = 0 returns without starting a worker.
func TestOrderedEmpty(t *testing.T) {
	Ordered(0, 4, func() func(int) {
		t.Error("start called for n = 0")
		return func(int) {}
	}, func(i int) { t.Errorf("emit(%d) called for n = 0", i) })
}

// TestOrderedPanicReraised panics in do(0) while the other workers are
// mid-task and checks that the caller receives the original value only
// after every other worker's do has returned, that claims stop after
// the panic, and that nothing is emitted past the missing index.
func TestOrderedPanicReraised(t *testing.T) {
	const n, workers = 64, 4
	boom := make(chan struct{})
	var started, finished, emits atomic.Int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Ordered(n, workers, func() func(int) {
			return func(i int) {
				started.Add(1)
				if i == 0 {
					close(boom)
					panic("boom")
				}
				<-boom
				time.Sleep(10 * time.Millisecond)
				finished.Add(1)
			}
		}, func(int) { emits.Add(1) })
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v, want the worker's panic value", recovered)
	}
	if s, f := started.Load(), finished.Load(); s != f+1 {
		t.Errorf("re-raised with workers still running: %d do calls started, %d finished (+1 panicked)", s, f)
	}
	if s := started.Load(); s == n {
		t.Errorf("all %d indices claimed after the panic; claims should stop", n)
	}
	if e := emits.Load(); e != 0 {
		t.Errorf("%d emits, want none past the panicked index 0", e)
	}
}
