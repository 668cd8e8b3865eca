package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// suiteRun is one pass over all four workloads: interleaved measured
// rounds, then the traced pass.
type suiteRun struct {
	aggs map[string]*aggregate
}

// runSuite is the whole benchmark in one command: for each repeat, 5
// rounds of every workload, interleaved (W1r1, W2r1, W3r1, W4r1, W1r2,
// …) so that machine drift hits all alike, each round a fresh server,
// set-up and a window of -seconds/5 with tracing off;
// then a traced pass per workload. Every metric is printed by name with
// its unit; -repeat 2 prints both medians of every (end-to-end metric,
// workload) pair against the metric's bound.
func runSuite(o options, tmp string, stdout io.Writer) (bool, error) {
	printHeader(stdout, o, fmt.Sprintf("suite rounds=%d round-seconds=%.3g repeat=%d", rounds, o.roundSeconds(), o.repeat))
	var runs []suiteRun
	ok := true
	for rep := 0; rep < o.repeat; rep++ {
		run := suiteRun{aggs: make(map[string]*aggregate)}
		var benches []bench
		for _, w := range workloadDefs {
			b, err := newBench(w.Name, tmp)
			if err != nil {
				return false, err
			}
			if err := b.prepare(o.seed); err != nil {
				return false, err
			}
			benches = append(benches, b)
			run.aggs[w.Name] = newAggregate()
		}
		for r := 0; r < rounds; r++ {
			for _, b := range benches {
				res, err := b.round(seconds(o.roundSeconds()), nil)
				if err != nil {
					return false, err
				}
				run.aggs[b.name()].add(res)
				fmt.Fprintf(stdout, "repeat %d round %d %-13s host.spin_ms=%.2f %s\n",
					rep+1, r+1, b.name(), res.values["host.spin_ms"], roundSummary(res))
			}
		}
		var probes map[string]float64
		for _, b := range benches {
			var err error
			if probes, err = tracedPass(b, o, tmp, 5, probes, run.aggs[b.name()], stdout); err != nil {
				return false, err
			}
		}
		for _, b := range benches {
			agg := run.aggs[b.name()]
			if err := agg.catalogued(); err != nil {
				return false, err
			}
			_, failed := agg.tally.totals()
			ok = ok && failed == 0
			printWorkload(stdout, b.name(), agg)
		}
		runs = append(runs, run)
	}
	if len(runs) == 2 {
		printComparison(stdout, runs[0], runs[1])
	}
	summary := make(map[string]map[string]float64)
	last := runs[len(runs)-1]
	for name, agg := range last.aggs {
		summary[name] = make(map[string]float64)
		for _, d := range allMetrics() {
			summary[name][d.Name] = agg.median(d.Name)
		}
	}
	data, err := json.Marshal(summary)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return ok, nil
}

// printWorkload prints every metric of one workload: end-to-end as the
// median of its rounds with quartiles, per-layer as single values.
func printWorkload(w io.Writer, name string, agg *aggregate) {
	attempted, failed := agg.tally.totals()
	fmt.Fprintf(w, "\n== %s: attempted=%d failed=%d\n", name, attempted, failed)
	printOps(w, agg)
	for _, d := range endToEnd {
		q1, q3 := quartiles(agg.rounds[d.Name])
		fmt.Fprintf(w, "  %-34s %14.6g %-6s  q1=%.6g q3=%.6g rounds=%d  bound=%g %s\n",
			d.Name, agg.median(d.Name), d.Unit, q1, q3, len(agg.rounds[d.Name]), d.Bound, d.Better)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, agg.median(d.Name), d.Unit)
	}
}

// printComparison is the two-set check: the same code measured twice
// must agree within the benchmark's own bounds.
func printComparison(w io.Writer, first, second suiteRun) {
	fmt.Fprintf(w, "\n== two-set check (same code, run twice)\n")
	for _, wl := range workloadDefs {
		a, b := first.aggs[wl.Name], second.aggs[wl.Name]
		for _, d := range endToEnd {
			m1, m2 := a.median(d.Name), b.median(d.Name)
			spread := math.Max(spreadOf(a.rounds[d.Name]), spreadOf(b.rounds[d.Name]))
			fmt.Fprintf(w, "  %-13s %-16s first=%-12.6g second=%-12.6g ratio=%.4f spread=%.4f bound=%g %s\n",
				wl.Name, d.Name, m1, m2, m2/m1, spread, d.Bound, twoSetVerdict(m1, m2, spread, d.Bound))
		}
	}
}

// spreadOf is a metric's quartile distance as a share of its median.
func spreadOf(rounds []float64) float64 {
	q1, q3 := quartiles(rounds)
	return (q3 - q1) / median(rounds)
}

// twoSetVerdict is PASS when two medians of the same code differ, in
// either direction, by no more than the bound and the rounds behind
// them spread by no more than it. Anything else — a zero or missing
// median included — is UNRESOLVED: the benchmark cannot tell a change of
// that size from noise there.
func twoSetVerdict(m1, m2, spread, bound float64) string {
	if m1 > 0 && m2 > 0 && math.Abs(m2/m1-1) <= bound && spread <= bound {
		return "PASS"
	}
	return "UNRESOLVED"
}
