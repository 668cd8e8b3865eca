package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/whatif"
)

// BuildFunc constructs one plan cache for an analysed query using the given
// what-if session (BuildSlim, BuildPrecise, a Builder's, the reference
// Build and inum.Build all fit).
// A BuildFunc may keep state between its calls, as Builder's do, so one
// value serves one goroutine at a time.
type BuildFunc func(*optimizer.Analysis, *whatif.Session) (*inum.Cache, error)

// Fan runs job(i) for every i in [0, n) on up to workers goroutines, the
// calling one included: the caller is worker 0 and min(workers, n) − 1
// helpers are spawned beside it, all claiming indexes from one atomic
// counter, so n == 1 or workers == 1 runs entirely on the caller and
// spawns nothing. Each participating goroutine calls newWorker once and
// applies the returned closure to the indexes it claims, so worker-local
// state (a what-if session, a scratch buffer) is built once per
// participant; a helper that wakes after the indexes ran out builds
// nothing and is not waited for. Jobs write their results into
// caller-owned slices at their own index, which keeps output deterministic
// regardless of scheduling. workers <= 0 means GOMAXPROCS.
//
// A panic in a job surfaces on the caller whichever goroutine ran it: no
// further index is claimed, jobs already claimed finish, and the first
// helper's panic value is re-raised from Fan — so a recover around the
// call contains the whole fan-out.
func Fan(n, workers int, newWorker func() func(i int)) {
	FanCtxObserved(context.Background(), n, workers, newWorker, nil)
}

// FanCtxObserved is Fan with cancellation and per-job timing. Once ctx is
// done no further index is claimed, in-flight jobs finish, and ctx.Err() is
// returned (nil when every index was claimed first). A serving layer threads
// each request's context through here so a disconnected client or an
// expired deadline stops burning workers on per-query evaluations nobody
// will read. Callers must treat their result slices as incomplete whenever
// the returned error is non-nil: indexes past the cancellation point were
// never evaluated. When observe is non-nil, every completed job reports
// (index, start, duration) from the goroutine that ran it — the hook the
// serving layer uses to attach per-query spans to a request trace. observe
// must be safe for concurrent calls; a nil observe reads no timestamps, so
// untraced requests pay nothing.
func FanCtxObserved(ctx context.Context, n, workers int, newWorker func() func(i int), observe func(i int, start time.Time, d time.Duration)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		f := fanOut{ctx: ctx, n: n, observe: observe} // stays on the stack: nothing shares it
		f.drain(newWorker())
		return f.err()
	}
	f := &fanOut{ctx: ctx, n: n, newWorker: newWorker, observe: observe}
	for w := 1; w < workers; w++ {
		go f.help()
	}
	f.lead()
	return f.err()
}

// fanOut is one fan-out's state, shared by the caller and its helpers.
type fanOut struct {
	ctx       context.Context
	n         int
	newWorker func() func(i int)
	observe   func(i int, start time.Time, d time.Duration)

	next atomic.Int64

	// mu orders a helper's joined.Add before the caller's joined.Wait:
	// a helper joins only while closed is false, the caller sets closed
	// before it waits. It also guards panicked.
	mu       sync.Mutex
	closed   bool
	joined   sync.WaitGroup
	panicked any // first helper panic value
}

// drain claims indexes until they run out or ctx is done, and runs job on
// each.
func (f *fanOut) drain(job func(i int)) {
	for f.ctx.Err() == nil {
		i := int(f.next.Add(1) - 1)
		if i >= f.n {
			return
		}
		if f.observe == nil {
			job(i)
			continue
		}
		start := time.Now()
		job(i)
		f.observe(i, start, time.Since(start))
	}
}

// err is the verdict once every participant has stopped: the counter stops
// short of n only when cancellation stopped the claims.
func (f *fanOut) err() error {
	if f.next.Load() < int64(f.n) {
		return f.ctx.Err()
	}
	return nil
}

// stop makes every later claim come up empty.
func (f *fanOut) stop() { f.next.Store(int64(f.n)) }

// lead is the caller's share: worker 0, then the wait for the helpers that
// joined. A panic in one of the caller's own jobs keeps unwinding after
// the wait; a helper's is re-raised here.
func (f *fanOut) lead() {
	finished := false
	defer func() {
		if !finished {
			f.stop()
		}
		f.mu.Lock()
		f.closed = true
		f.mu.Unlock()
		f.joined.Wait()
		if finished && f.panicked != nil {
			panic(f.panicked)
		}
	}()
	f.drain(f.newWorker())
	finished = true
}

// help is one helper goroutine. It joins only if there is still an index
// to claim and the caller has not started waiting, so a helper scheduled
// after the work is gone costs the caller nothing.
func (f *fanOut) help() {
	f.mu.Lock()
	if f.closed || f.next.Load() >= int64(f.n) {
		f.mu.Unlock()
		return
	}
	f.joined.Add(1)
	f.mu.Unlock()
	defer f.joined.Done()
	defer func() {
		if p := recover(); p != nil {
			f.stop()
			f.mu.Lock()
			if f.panicked == nil {
				f.panicked = p
			}
			f.mu.Unlock()
		}
	}()
	f.drain(f.newWorker())
}

// BuildAllWith fills one plan cache per analysis on a budget of workers
// cores (≤ 0: GOMAXPROCS). When the budget gives every query two cores
// (pairs), each query gets a worker of its own whose two optimizer calls
// plan at once; otherwise each worker builds one query at a time and plans
// its calls one after the other. Workers claim the queries largest
// estimated planning work first (claimOrder), not in input order. Each
// worker owns a private what-if session and the BuildFunc its own
// newBuilder(paired) call returned (neither is safe for concurrent use;
// both are garbage once the batch returns), and every cache lands at its
// input index, so the returned slice is deterministic regardless of
// scheduling, claim order or pairing: caches[i] is the cache for
// analyses[i], bit for bit the same at any budget. workers == 1 is the
// serial construction. A failed query does not stop the others: every
// query builds, and the first error in input order is returned. A panic in
// a build surfaces on the caller (Fan).
func BuildAllWith(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int, newBuilder func(paired bool) BuildFunc) ([]*inum.Cache, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	paired := pairs(len(analyses), workers)
	order := claimOrder(analyses, workers)
	caches := make([]*inum.Cache, len(analyses))
	errs := make([]error, len(analyses))
	Fan(len(analyses), workers, func() func(int) {
		ws, fn := whatif.NewSession(cat), newBuilder(paired)
		return func(k int) {
			i := order[k]
			caches[i], errs[i] = fn(analyses[i], ws)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return caches, nil
}

// claimOrder is the order a batch's workers claim its queries in: by
// descending optimizer.Analysis.PlanWork, ties in input order. This is
// longest-processing-time-first scheduling (Graham, 1969): a workload
// listed cheapest first — the paper's star queries are, and the last one
// is about half the batch's planning — would otherwise start its largest
// query last and leave it running alone while the other cores wait. The
// estimates are computed on the batch's workers, not serially on the
// caller: building a query's join enumeration is work its planning would
// do anyway.
func claimOrder(analyses []*optimizer.Analysis, workers int) []int {
	order, work := make([]int, len(analyses)), make([]int, len(analyses))
	Fan(len(analyses), workers, func() func(int) {
		return func(i int) { order[i], work[i] = i, analyses[i].PlanWork() }
	})
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(work[y], work[x]) })
	return order
}

// pairs is the pairing rule: a batch of n queries pairs each query's two
// optimizer calls when its core budget gives every query two cores. A wider
// batch already keeps every core busy with one query per worker, and
// pairing there would only add a helper goroutine and a second planner per
// worker.
func pairs(n, budget int) bool { return 2*n <= budget }

// BuildAll is the reference construction (Build) of a batch in either
// nested-loop mode, fanned out across queries on a budget of workers cores
// (BuildAllWith; its calls never pair). The library never calls it.
func BuildAll(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int, precise bool) ([]*inum.Cache, error) {
	return BuildAllWith(analyses, cat, workers, func(bool) BuildFunc {
		return func(a *optimizer.Analysis, ws *whatif.Session) (*inum.Cache, error) { return reference(a, ws, precise) }
	})
}

// BuildAllSlim fills one PINUM plan cache per analysis (BuildSlim's) on a
// budget of workers cores — the batch construction the advisor, the
// snapshot store and the serving layer start from.
func BuildAllSlim(analyses []*optimizer.Analysis, cat *catalog.Catalog, workers int) ([]*inum.Cache, error) {
	return BuildAllWith(analyses, cat, workers, func(paired bool) BuildFunc { return Builder(false, paired) })
}
