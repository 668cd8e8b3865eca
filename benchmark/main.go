// Command benchmark is the repository's whole-system benchmark: four
// closed-loop workloads driven in-process through
// serve.Server.Handler().ServeHTTP, every answer checked against an
// independent golden, end-to-end medians over rounds, and a separate
// traced pass for the per-layer numbers. README.md has the catalogue.
//
//	go run ./benchmark -seed 42                  # all four workloads, interleaved rounds, traced pass
//	go run ./benchmark -seed 42 -repeat 2        # the suite twice, medians compared against the bounds
//	go run ./benchmark --workload whatif-point --seed 7 --seconds 20 --trace 0
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir is the only place the benchmark writes: snapshot stores (removed
// on exit) and the trace file, inside the working directory.
const outDir = ".bench_out"

// rounds is how many rounds a workload's measured seconds are split
// into; every end-to-end metric is the median of its rounds.
const rounds = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	traceOut string
}

// roundSeconds is the measured window of one round.
func (o options) roundSeconds() float64 { return o.seconds / rounds }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds measured per workload, split over 5 rounds")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	fs.IntVar(&o.repeat, "repeat", 1, "suite: 2 runs everything twice and compares the medians")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file written when a traced pass ends (default "+outDir+"/trace-<workload>.jsonl; the suite appends .<workload>)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || (o.repeat != 1 && o.repeat != 2) || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat 1 or 2, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ok := false
	if o.workload != "" {
		ok, err = runDriver(o, tmp, stdout)
	} else {
		ok, err = runSuite(o, tmp, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func newBench(name, tmp string) (bench, error) {
	switch name {
	case "whatif-point":
		return newWhatIfPoint(), nil
	case "whatif-wide":
		return newWhatIfWide(), nil
	case "tenant-churn":
		return newChurn(tmp), nil
	case "design-batch":
		return newBatch(tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// printHeader records what the numbers were measured on.
func printHeader(w io.Writer, o options, mode string) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# pinum benchmark: %s seed=%d GOMAXPROCS=%d NumCPU=%d %s commit=%s\n",
		mode, o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// aggregate is the per-metric reduction of a workload's rounds, and
// the operation tallies of all of them.
type aggregate struct {
	rounds map[string][]float64
	tally  *roundResult
}

func newAggregate() *aggregate {
	return &aggregate{rounds: make(map[string][]float64), tally: newRoundResult()}
}

// add files one measured round: a value per metric, its share of
// failed operations, and its tallies.
func (a *aggregate) add(res *roundResult) {
	for name, v := range res.values {
		a.rounds[name] = append(a.rounds[name], v)
	}
	attempted, failed := res.totals()
	a.rounds["fail_share"] = append(a.rounds["fail_share"], float64(failed)/float64(max(attempted, 1)))
	a.tally.merge(res)
}

// fill gives the metrics that have no value yet a single one.
func (a *aggregate) fill(values map[string]float64) {
	for name, v := range values {
		if len(a.rounds[name]) == 0 {
			a.rounds[name] = []float64{v}
		}
	}
}

func (a *aggregate) median(name string) float64 { return median(a.rounds[name]) }

// catalogued rejects a value filed under a name the catalogue lacks: a
// misspelt metric would otherwise report 0 under its real name.
func (a *aggregate) catalogued() error {
	known := make(map[string]bool)
	for _, d := range allMetrics() {
		known[d.Name] = true
	}
	for name := range a.rounds {
		if !known[name] {
			return fmt.Errorf("metric %q is measured but not in the catalogue", name)
		}
	}
	return nil
}

// resultLine is the driver's contract: the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload the way the driver asks: -trace 0 is 5
// rounds of seconds/5 each, medians reported; -trace 1 is one untraced
// window, the traced replay and the probes.
func runDriver(o options, tmp string, stdout io.Writer) (bool, error) {
	b, err := newBench(o.workload, tmp)
	if err != nil {
		return false, err
	}
	if o.trace == 0 {
		printHeader(stdout, o, fmt.Sprintf("%s rounds=%d round-seconds=%.3g", o.workload, rounds, o.roundSeconds()))
	} else {
		printHeader(stdout, o, fmt.Sprintf("%s traced seconds=%.3g", o.workload, o.seconds))
	}
	if err := b.prepare(o.seed); err != nil {
		return false, err
	}
	agg := newAggregate()
	defs := endToEnd
	if o.trace == 0 {
		for r := 0; r < rounds; r++ {
			res, err := b.round(seconds(o.roundSeconds()), nil)
			if err != nil {
				return false, err
			}
			agg.add(res)
			fmt.Fprintf(stdout, "round %d: host.spin_ms=%.2f %s\n", r+1, res.values["host.spin_ms"], roundSummary(res))
		}
	} else {
		// One untraced window for the window-level numbers, then the
		// traced replay and the probes.
		defs = perLayer
		plain, err := b.round(seconds(o.seconds/2), nil)
		if err != nil {
			return false, err
		}
		agg.add(plain)
		if _, err := tracedPass(b, o, tmp, o.seconds/4, nil, agg, stdout); err != nil {
			return false, err
		}
	}
	if err := agg.catalogued(); err != nil {
		return false, err
	}
	attempted, failed := agg.tally.totals()
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: agg.median(d.Name), Unit: d.Unit}
	}
	printOps(stdout, agg)
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return line.Correct, nil
}

func roundSummary(res *roundResult) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.6g", d.Name, res.values[d.Name]))
	}
	return strings.Join(parts, " ")
}

func printOps(w io.Writer, agg *aggregate) {
	for _, k := range agg.tally.opKinds() {
		c := agg.tally.ops[k]
		fmt.Fprintf(w, "ops %-12s attempted=%d succeeded=%d failed=%d\n", k, c.attempted, c.attempted-c.failed, c.failed)
	}
	for _, n := range agg.tally.notes {
		fmt.Fprintln(w, "FAILED", n)
	}
}

// tracedPass replays a workload with spans on and adds the per-layer
// values to agg; the probes (single calls on the paper's star workload)
// fill in what the workload's own replay does not measure. End-to-end
// metrics never come from here. The probes run under the same tracer
// when the caller has no values from an earlier pass to hand in; either
// way they are returned for the next.
func tracedPass(b bench, o options, tmp string, window float64, probes map[string]float64, agg *aggregate, stdout io.Writer) (map[string]float64, error) {
	tr := newTracer()
	if probes == nil {
		probes = make(map[string]float64)
		if err := runProbes(tmp, tr, probes); err != nil {
			return nil, err
		}
	}
	traced, err := b.round(seconds(window), tr)
	if err != nil {
		return nil, err
	}
	// What the untraced windows measured stays; the replay adds what only
	// it can see, and the probes what neither saw.
	agg.fill(traced.values)
	agg.tally.merge(traced)
	agg.fill(probes)

	var total float64
	for _, us := range tr.layers {
		total += us
	}
	for layer, metric := range shareMetric {
		if us, ok := tr.layers[layer]; ok && total > 0 {
			agg.rounds[metric] = []float64{100 * us / total}
		}
	}
	fmt.Fprintf(stdout, "%s: share of traced replay time by layer (%d requests)\n", b.name(), tr.reqs)
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "share.") && len(agg.rounds[d.Name]) > 0 {
			fmt.Fprintf(stdout, "  %-30s %6.1f %%\n", d.Name, agg.median(d.Name))
		}
	}
	fmt.Fprintf(stdout, "  %-30s %6.1f us\n", "serve.span_unaccounted_us", agg.median("serve.span_unaccounted_us"))
	path := filepath.Join(outDir, "trace-"+b.name()+".jsonl")
	if o.traceOut != "" {
		path = o.traceOut
		if o.workload == "" { // the suite writes one file per workload
			path += "." + b.name()
		}
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: %d spans of the first %d requests written to %s\n", b.name(), len(tr.spans), keepRequests, path)
	return probes, nil
}
