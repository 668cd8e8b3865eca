// Package faultpoint implements named fault-injection points: zero-cost
// hooks compiled into error-handling paths (snapshot decode, crash-safe
// save, background rebuild, tenant cold-load and eviction, first-use
// candidate generation) so tests and operational drills can prove the
// degradation behavior around them instead of trusting it.
//
// A point is a dormant call site — faultpoint.Hit("plancache.decode") —
// that returns nil until a fault is armed for its name. Faults are armed
// programmatically (tests: Set/Clear/Reset) or from the environment
// (operations: PINUM_FAULTPOINTS="serve.rebuild=error:2;plancache.decode=panic"
// parsed by ConfigureFromEnv, which commands opt into at startup). Three
// modes exist:
//
//	error          Hit returns an ErrInjected-wrapped error
//	panic          Hit panics
//	delay=<dur>    Hit sleeps for dur, then returns nil
//
// A spec may append :N to fire only on the first N hits ("error:2" fails
// twice, then heals), which is how retry/backoff recovery paths are
// exercised end to end. Hits are counted whether or not a fault fires, so
// tests can assert a guarded path actually ran.
//
// The fast path when nothing is armed is one atomic load; production
// binaries that never call ConfigureFromEnv or Set pay only that.
package faultpoint

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected error; callers distinguish
// injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultpoint: injected failure")

// mode is what an armed fault does on a hit.
type mode int

const (
	modeError mode = iota
	modePanic
	modeDelay
)

// fault is one armed fault.
type fault struct {
	mode mode
	// remaining is how many more hits fire, or -1 for unlimited.
	remaining int64
	delay     time.Duration
}

var (
	// armed counts configured faults; Hit returns immediately while it
	// is zero, so dormant points cost one atomic load.
	armed atomic.Int64

	mu     sync.Mutex
	faults = map[string]*fault{}
	hits   = map[string]*atomic.Int64{}
)

// Hit is the injection point: it returns the armed fault's error (or
// panics, or sleeps) for this name, and nil when the name is dormant.
// Every call is counted, armed or not, once any fault has ever been
// configured in the process.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	counter := hits[name]
	if counter == nil {
		counter = &atomic.Int64{}
		hits[name] = counter
	}
	counter.Add(1)
	f := faults[name]
	if f == nil {
		mu.Unlock()
		return nil
	}
	if f.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if f.remaining > 0 {
		f.remaining--
	}
	m, d := f.mode, f.delay
	mu.Unlock()

	switch m {
	case modePanic:
		panic(fmt.Sprintf("faultpoint: injected panic at %q", name))
	case modeDelay:
		time.Sleep(d)
		return nil
	default:
		return fmt.Errorf("%w at %q", ErrInjected, name)
	}
}

// Count returns how many times the named point has been hit since the
// first fault was configured in this process (dormant processes do not
// count hits at all). Part of the package's test API with Clear and
// Reset: serve's candidates and reload tests assert a guarded path ran
// with it (TestFailedReloadRetriesAutomatically among them).
func Count(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if c := hits[name]; c != nil {
		return c.Load()
	}
	return 0
}

// Set arms one fault. spec is mode[:N] where mode is "error", "panic" or
// "delay=<duration>", and N caps how many hits fire (absent = unlimited).
func Set(name, spec string) error {
	f, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultpoint %q: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, exists := faults[name]; !exists {
		armed.Add(1)
	}
	faults[name] = f
	return nil
}

// Clear disarms one fault (hit counting continues). Tests use it to let
// a healed path succeed mid-test (serve's reload_test.go, TestClearDisarms).
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := faults[name]; exists {
		delete(faults, name)
		armed.Add(-1)
	}
}

// Reset disarms every fault and zeroes every hit counter. Tests pair Set
// with t.Cleanup(faultpoint.Reset); shipped code never calls it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(faults)))
	faults = map[string]*fault{}
	hits = map[string]*atomic.Int64{}
}

// ConfigureFromEnv arms faults from a semicolon-separated list of
// name=spec pairs, e.g. "serve.rebuild=error:2;plancache.decode=panic".
// Commands that want environment-driven injection call this explicitly at
// startup with os.Getenv("PINUM_FAULTPOINTS"); an empty value is a no-op.
func ConfigureFromEnv(value string) error {
	if value == "" {
		return nil
	}
	for _, pair := range strings.Split(value, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("faultpoint: bad pair %q, want name=spec", pair)
		}
		if err := Set(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// parseSpec parses mode[:N] with mode error | panic | delay=<duration>.
func parseSpec(spec string) (*fault, error) {
	f := &fault{remaining: -1}
	base := spec
	if i := strings.LastIndex(spec, ":"); i >= 0 {
		if n, err := strconv.ParseInt(spec[i+1:], 10, 64); err == nil {
			if n < 0 {
				return nil, fmt.Errorf("bad hit count %d", n)
			}
			f.remaining = n
			base = spec[:i]
		}
	}
	switch {
	case base == "error":
		f.mode = modeError
	case base == "panic":
		f.mode = modePanic
	case strings.HasPrefix(base, "delay="):
		d, err := time.ParseDuration(strings.TrimPrefix(base, "delay="))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay spec %q", base)
		}
		f.mode = modeDelay
		f.delay = d
	default:
		return nil, fmt.Errorf("unknown fault spec %q (want error, panic or delay=<duration>, each optionally :N)", spec)
	}
	return f, nil
}
