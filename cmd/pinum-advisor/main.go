// Command pinum-advisor runs the paper's §V-E index selection tool on the
// generated star-schema workload and prints the suggested indexes.
//
//	pinum-advisor -budget 5            # 5 GB budget, 10-query workload
//	pinum-advisor -budget 2 -max 6
//	pinum-advisor -workers 4           # bound the build/search worker pool
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/pinumdb/pinum"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/workload"
)

func main() {
	budget := flag.Float64("budget", 5, "index space budget in GB")
	maxIdx := flag.Int("max", 0, "maximum number of indexes (0 = unlimited)")
	seed := flag.Int64("seed", 42, "workload seed")
	workers := flag.Int("workers", 0, "worker pool size for cache construction and the greedy search (0 = all CPUs, 1 = serial; results are identical at any setting)")
	flag.Parse()
	budgetBytes, err := storage.BudgetBytes(*budget)
	if err != nil {
		fatal(fmt.Errorf("-budget %w", err))
	}

	star, err := workload.StarSchema(1.0)
	if err != nil {
		fatal(err)
	}
	qs, err := star.Queries(*seed)
	if err != nil {
		fatal(err)
	}
	db := pinum.NewDatabaseWith(star.Catalog, star.Stats)
	adv := db.NewAdvisor(budgetBytes)
	adv.MaxIndexes = *maxIdx
	adv.Parallelism = *workers

	start := time.Now()
	if err := adv.AddQueries(qs, nil); err != nil {
		fatal(err)
	}
	n := adv.GenerateCandidates()
	fmt.Printf("workload: %d queries; candidates: %d; caches built with %s\n",
		len(qs), n, time.Since(start).Round(time.Millisecond))
	if errs := adv.GenerationErrors(); len(errs) > 0 {
		fmt.Printf("WARNING: %d candidate generations failed (first: %v)\n", len(errs), errs[0])
	}

	res, err := adv.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("greedy selection: %d rounds over %d candidates in %s (no optimizer calls)\n",
		res.Rounds, res.CandidateCount, res.Duration.Round(time.Millisecond))
	visits := res.Engine.QueryEvals + res.Engine.QuerySkips
	pruned := 0.0
	if visits > 0 {
		pruned = float64(res.Engine.QuerySkips) / float64(visits)
	}
	fmt.Printf("cost engine: %d candidate evaluations; %d query deltas computed, %d skipped by the table index (%.0f%% pruned); %d entry folds\n\n",
		res.Engine.CandidateEvals, res.Engine.QueryEvals, res.Engine.QuerySkips, 100*pruned, res.Engine.PlanEvals)
	fmt.Printf("suggested indexes (%.2f GB of %.2f GB budget):\n",
		storage.GigaBytes(res.TotalBytes), *budget)
	for i, ix := range res.Chosen {
		fmt.Printf("  %2d. %s  (%.2f GB)\n", i+1, ix.Key(), storage.GigaBytes(storage.IndexBytes(ix)))
	}
	fmt.Printf("\nestimated workload cost: %.0f → %.0f  (%.1f%% speedup; paper: 95%%)\n",
		res.BaseCost, res.FinalCost, 100*res.Speedup())
	fmt.Println("\nper-query estimates:")
	for _, q := range qs {
		e := res.PerQuery[q.Name]
		fmt.Printf("  %-4s %12.0f → %12.0f\n", q.Name, e[0], e[1])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pinum-advisor:", err)
	os.Exit(1)
}
