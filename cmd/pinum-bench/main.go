// Command pinum-bench regenerates the paper's evaluation: every table and
// figure of §IV/§VI, printed in the same shape the paper reports.
//
//	pinum-bench            # run everything
//	pinum-bench -e e3      # run one experiment (e1..e6)
//	pinum-bench -quick     # reduced trial counts for a fast pass
//
// Engineering performance is refereed elsewhere: `go run ./benchmark`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/pinumdb/pinum/internal/experiments"
)

// experimentIDs are the values -e accepts besides "all", in run order.
var experimentIDs = []string{"e1", "e2", "e3", "e4", "e5", "e6"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// selectExperiments resolves the -e value to the experiments to run.
func selectExperiments(want string) ([]string, error) {
	want = strings.ToLower(want)
	if want == "all" {
		return experimentIDs, nil
	}
	for _, id := range experimentIDs {
		if id == want {
			return []string{id}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s, or all)", want, strings.Join(experimentIDs, ", "))
}

// run is main without the process exit: 0 on success, 1 when an
// experiment fails, 2 on a usage error (nothing has run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pinum-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("e", "all", "experiment to run: e1, e2, e3, e4, e5, e6, or all")
	quick := fs.Bool("quick", false, "reduced trial counts")
	seed := fs.Int64("seed", 42, "workload generation seed")
	scale := fs.Float64("exec-scale", 0.0005, "materialisation scale for the execution experiment (1.0 = the paper's 10 GB)")
	workers := fs.Int("workers", 0, "worker pool size for the advisor's cache construction and greedy search in e4 (0 = all CPUs, 1 = serial; results are identical either way). e3 always times builds serially, in isolation, to stay faithful to the paper's methodology")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ids, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, "pinum-bench:", err)
		return 2
	}

	env, err := experiments.NewEnv(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "pinum-bench:", err)
		return 1
	}
	env.Workers = *workers
	trialsE1, cfgsE2 := 50, 1000
	if *quick {
		trialsE1, cfgsE2 = 20, 100
	}

	for _, id := range ids {
		var r fmt.Stringer
		switch id {
		case "e1":
			r, err = experiments.RunE1(env, trialsE1)
		case "e2":
			r, err = experiments.RunE2(env, cfgsE2, nil)
		case "e3":
			r, err = experiments.RunE3(env, nil)
		case "e4":
			r, err = experiments.RunE4(env, *scale, 5)
		case "e5":
			r, err = experiments.RunE5(env)
		case "e6":
			r, err = experiments.RunE6(env)
		}
		if err != nil {
			fmt.Fprintln(stderr, "pinum-bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, r)
	}
	return 0
}
