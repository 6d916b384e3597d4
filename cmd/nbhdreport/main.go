// Command nbhdreport runs the full Fig. 1 pipeline end to end: generate
// the county corpus, classify every frame with the majority-voting
// committee, fuse headings per coordinate, and print the neighborhood
// environment report (tract scores and health-outcome associations).
//
// The run is a declarative experiment spec executed by the streaming
// runner: coordinate groups fan out across -workers evaluation workers
// in one walk of the corpus, and Ctrl-C cancels the walk cleanly
// mid-run.
//
// Usage:
//
//	nbhdreport -coords 150 -tract-feet 5000
//	nbhdreport -workers 8        # cap the classification fan-out
//	nbhdreport -run-dir runs     # leave a diffable run-artifact trail
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"nbhd/internal/core"
	"nbhd/internal/experiment"
	"nbhd/internal/scene"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbhdreport:", err)
		os.Exit(1)
	}
}

func run() error {
	coords := flag.Int("coords", 100, "sampled coordinates (4 frames each)")
	seed := flag.Int64("seed", 1, "seed")
	tractFeet := flag.Float64("tract-feet", 5000, "tract grid cell size in feet")
	top := flag.Int("top", 5, "tracts to list per ranking")
	workers := flag.Int("workers", 0, "evaluation worker budget (0 = GOMAXPROCS)")
	runDir := flag.String("run-dir", "", "write run artifacts (manifest + analysis JSON) under this directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec, err := experiment.Builtin("neighborhood", experiment.BuiltinConfig{Coordinates: *coords, Seed: *seed})
	if err != nil {
		return err
	}
	// The spec is data: point its one analysis step at the requested
	// tract grid before handing it to the runner.
	spec.Analyses[0].TractFeet = *tractFeet

	// Open the artifact store before the run so a locked directory
	// fails fast and the deferred Close releases the LOCK even when
	// Ctrl-C cancels mid-analysis — a lab workspace pointed at the same
	// directory can reopen immediately.
	var store *experiment.Store
	if *runDir != "" {
		store, err = experiment.NewStore(*runDir)
		if err != nil {
			return err
		}
		defer func() { _ = store.Close() }()
	}

	runRes, err := experiment.NewRunner(experiment.RunnerConfig{Workers: *workers}).Run(ctx, spec, nil)
	if err != nil {
		return err
	}
	if store != nil {
		dir, err := store.Save("", runRes)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nbhdreport: run artifacts in %s\n", dir)
	}
	res := runRes.Analysis("neighborhood").Result
	var committee []string
	for _, m := range spec.Backends["committee"].Members {
		committee = append(committee, m.Model)
	}

	fmt.Printf("analyzed %d coordinates into %d tracts (committee: %v)\n",
		len(res.Locations), len(res.Tracts), committee)

	fmt.Println("\nmost walkable tracts:")
	printTopScores(res, *top, func(s float64, best float64) bool { return s > best }, true)
	fmt.Println("\nhighest-burden tracts:")
	printTopScores(res, *top, func(s float64, best float64) bool { return s > best }, false)

	fmt.Println("\nindicator-to-outcome associations (synthetic obesity model):")
	fmt.Printf("%-18s %9s %5s\n", "indicator", "Pearson", "N")
	for _, a := range res.Associations {
		fmt.Printf("%-18s %9.3f %5d\n", a.Indicator.String(), a.Pearson, a.N)
	}

	fmt.Println("\ntract detail:")
	fmt.Printf("%-22s %5s", "tract", "locs")
	for _, ind := range scene.Indicators() {
		fmt.Printf(" %5s", ind.Abbrev())
	}
	fmt.Println()
	for _, tr := range res.Tracts {
		fmt.Printf("%-22s %5d", tr.TractID, tr.Locations)
		for _, ind := range scene.Indicators() {
			fmt.Printf(" %5.2f", tr.Rates[ind.Index()])
		}
		fmt.Println()
	}
	return nil
}

// printTopScores lists the top-k tracts by walkability (walk=true) or
// burden (walk=false) using selection without re-sorting the result.
func printTopScores(res *core.NeighborhoodResult, k int, better func(a, b float64) bool, walk bool) {
	type row struct {
		id    string
		score float64
	}
	rows := make([]row, 0, len(res.Scores))
	for _, s := range res.Scores {
		v := s.Burden
		if walk {
			v = s.Walkability
		}
		rows = append(rows, row{id: s.TractID, score: v})
	}
	// Simple selection of the top k.
	for i := 0; i < k && i < len(rows); i++ {
		best := i
		for j := i + 1; j < len(rows); j++ {
			if better(rows[j].score, rows[best].score) {
				best = j
			}
		}
		rows[i], rows[best] = rows[best], rows[i]
		fmt.Printf("  %-22s %5.2f\n", rows[i].id, rows[i].score)
	}
}
