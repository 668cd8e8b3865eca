package core

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanCtxRunsAllWithoutCancellation pins the degenerate case: an
// un-cancelled context dispatches every job exactly once and returns nil.
func TestFanCtxRunsAllWithoutCancellation(t *testing.T) {
	const n = 100
	var done [n]atomic.Int32
	err := FanCtxObserved(context.Background(), n, 4, func() func(int) {
		return func(i int) { done[i].Add(1) }
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if got := done[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

// TestFanCtxStopsDispatchOnCancel cancels mid-flight and requires the
// fan-out to stop dispatching, report the context error, and leave the
// tail of the index space untouched.
func TestFanCtxStopsDispatchOnCancel(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	err := FanCtxObserved(ctx, n, 2, func() func(int) {
		return func(i int) {
			if ran.Add(1) == 2 {
				cancel()
				close(release)
			}
			<-release
		}
	}, nil)
	if err != context.Canceled {
		t.Fatalf("FanCtxObserved returned %v, want context.Canceled", err)
	}
	// Two in-flight jobs plus at most the ones already queued before the
	// cancellation won; nowhere near all thousand.
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d jobs ran after cancellation, expected dispatch to stop early", got)
	}
}

// TestFanCtxObserved pins the timing hook: every job reports exactly
// once with its own index and a duration no shorter than the work, and
// the nil-observe path still runs everything.
func TestFanCtxObserved(t *testing.T) {
	const n = 20
	var observed [n]atomic.Int32
	var durOK [n]atomic.Int32
	err := FanCtxObserved(context.Background(), n, 4, func() func(int) {
		return func(i int) { time.Sleep(time.Millisecond) }
	}, func(i int, start time.Time, d time.Duration) {
		observed[i].Add(1)
		if d >= time.Millisecond && !start.IsZero() {
			durOK[i].Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range observed {
		if observed[i].Load() != 1 {
			t.Fatalf("job %d observed %d times, want 1", i, observed[i].Load())
		}
		if durOK[i].Load() != 1 {
			t.Fatalf("job %d reported an implausible start/duration", i)
		}
	}
}

// TestFanCtxExpiredDeadline pins the already-dead case: a context that
// expired before the call claims nothing.
func TestFanCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var ran atomic.Int32
	err := FanCtxObserved(ctx, 50, 4, func() func(int) {
		return func(int) { ran.Add(1) }
	}, nil)
	if err != context.DeadlineExceeded {
		t.Fatalf("FanCtxObserved returned %v, want context.DeadlineExceeded", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under an expired deadline", got)
	}
}

// TestFanManyWorkersExactlyOnce is the claim counter's race test (run it
// with -race -count=10): eight participants over a thousand jobs run every
// index exactly once, on at most eight workers' state.
func TestFanManyWorkersExactlyOnce(t *testing.T) {
	const n, workers = 1000, 8
	var done [n]atomic.Int32
	var built atomic.Int32
	results := make([]int, n)
	Fan(n, workers, func() func(int) {
		built.Add(1)
		return func(i int) {
			done[i].Add(1)
			results[i] = i * i
		}
	})
	for i := range done {
		if got := done[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
		if results[i] != i*i {
			t.Fatalf("job %d's result slot holds %d", i, results[i])
		}
	}
	if got := built.Load(); got < 1 || got > workers {
		t.Fatalf("newWorker ran %d times, want 1..%d", got, workers)
	}
}

// TestFanSpawnsNoMoreThanNeeded pins the helper count: two jobs under
// eight workers involve at most two participants.
func TestFanSpawnsNoMoreThanNeeded(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		var built atomic.Int32
		Fan(2, 8, func() func(int) {
			built.Add(1)
			return func(int) {}
		})
		if got := built.Load(); got < 1 || got > 2 {
			t.Fatalf("newWorker ran %d times for 2 jobs, want 1 or 2", got)
		}
	}
}

// TestFanSerialRunsOnCaller pins the two degenerate shapes: one job, or
// one worker, runs on the calling goroutine — nothing shared is allocated
// and nothing is spawned.
func TestFanSerialRunsOnCaller(t *testing.T) {
	ctx := context.Background()
	var ran int // unsynchronised: written by the jobs, which must be on this goroutine
	job := func(int) { ran++ }
	newWorker := func() func(int) { return job }
	for _, tc := range []struct{ n, workers int }{{1, 8}, {50, 1}} {
		ran = 0
		before := runtime.NumGoroutine()
		allocs := testing.AllocsPerRun(100, func() {
			if err := FanCtxObserved(ctx, tc.n, tc.workers, newWorker, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d workers=%d: %v allocs per fan, want 0", tc.n, tc.workers, allocs)
		}
		if want := 101 * tc.n; ran != want {
			t.Errorf("n=%d workers=%d: %d jobs ran, want %d", tc.n, tc.workers, ran, want)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("n=%d workers=%d: goroutines %d → %d", tc.n, tc.workers, before, after)
		}
	}
}

// goid is the running goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(f[1])
}

// TestFanHelperPanicSurfacesOnCaller pins panic propagation: a job that
// panics on a helper goroutine does not kill the process — the panic
// value is re-raised on the caller, no job runs twice, jobs already
// claimed finish, and every helper that joined has left when Fan returns.
func TestFanHelperPanicSurfacesOnCaller(t *testing.T) {
	const n = 64
	before := runtime.NumGoroutine()
	caller := goid()
	var ran [n]atomic.Int32
	var panicked atomic.Bool
	helperIn := make(chan struct{})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Fan(n, 4, func() func(int) {
			return func(i int) {
				ran[i].Add(1)
				if goid() == caller {
					// Hold the caller in its first job until a helper
					// is about to panic, so the panic is a helper's.
					select {
					case <-helperIn:
					case <-time.After(10 * time.Second):
					}
					return
				}
				if panicked.CompareAndSwap(false, true) {
					close(helperIn)
					panic("boom")
				}
			}
		})
	}()
	if recovered != "boom" {
		t.Fatalf("Fan recovered %v on the caller, want the helper's panic value", recovered)
	}
	claimed := 0
	for i := range ran {
		switch ran[i].Load() {
		case 0:
		case 1:
			claimed++
		default:
			t.Fatalf("job %d ran %d times", i, ran[i].Load())
		}
	}
	if claimed == n {
		t.Fatalf("all %d jobs ran: the panic did not stop the claims", n)
	}
	// Joined helpers were waited for; one that never joined exits on its
	// own the moment it is scheduled.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d → %d after Fan returned", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestFanCallerPanicWaitsForHelpers pins the other side: when the
// caller's own job panics, the panic still unwinds out of Fan, but only
// after the helpers' claimed jobs finished.
func TestFanCallerPanicWaitsForHelpers(t *testing.T) {
	caller := goid()
	var inFlight, finished atomic.Int32
	helperIn := make(chan struct{})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Fan(8, 2, func() func(int) {
			return func(i int) {
				if goid() == caller {
					select {
					case <-helperIn:
					case <-time.After(10 * time.Second):
					}
					panic("caller boom")
				}
				if inFlight.Add(1) == 1 {
					close(helperIn)
				}
				time.Sleep(5 * time.Millisecond)
				finished.Add(1)
			}
		})
	}()
	if recovered != "caller boom" {
		t.Fatalf("recovered %v, want the caller's own panic", recovered)
	}
	if inFlight.Load() != finished.Load() {
		t.Fatalf("Fan returned with %d of %d helper jobs unfinished", inFlight.Load()-finished.Load(), inFlight.Load())
	}
}
