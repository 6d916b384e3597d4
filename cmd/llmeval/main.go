// Command llmeval reproduces the paper's LLM evaluation section: the
// four per-model confusion tables (Tables III-VI), the parallel-vs-
// sequential comparison (Fig. 4), the accuracy comparison with majority
// voting (Fig. 5), the prompt-language sweep (Fig. 6), and the
// temperature/top-p sweeps (§IV-C4).
//
// Usage:
//
//	llmeval -coords 300                       # everything, in-process
//	llmeval -coords 150 -experiment f4        # just the Fig. 4 comparison
//	llmeval -workers 8                        # cap the evaluation fan-out
//	llmeval -backend http -base-url http://127.0.0.1:8080
//	                                          # same sweeps via a remote llmserve
//	llmeval -backend yolo -train-epochs 20    # detector presence over the corpus
//	llmeval -backend cnn                      # scene-classification CNN baseline
//	llmeval -run-dir runs -experiment f5      # leave a diffable run-artifact trail
//
// Every experiment is a declarative spec (experiment.Builtin) executed
// by the streaming runner on the concurrent evaluation engine: frames
// render once into a shared cache, sweeps fan out across workers shaped
// by each backend's capability hints, and Ctrl-C cancels cleanly
// mid-sweep (including mid-training for the supervised backends). The
// http backend uses the lossless image encoding, so its reports are
// bit-identical to -backend local. The yolo and cnn backends first
// train their model on the corpus's 70/20/10 split, then sweep the
// whole corpus; -experiment selection applies only to the local and
// http backends. -run-dir writes a manifest plus per-sweep report JSON
// for the run; -v streams progress events to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"nbhd/internal/experiment"
	"nbhd/internal/metrics"
	"nbhd/internal/prompt"
	"nbhd/internal/report"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "llmeval:", err)
		os.Exit(1)
	}
}

// quantSuffix annotates the training banner when int8 inference is on.
func quantSuffix(on bool) string {
	if on {
		return ", int8 inference"
	}
	return ""
}

func run() error {
	coords := flag.Int("coords", 150, "sampled coordinates (4 frames each)")
	seed := flag.Int64("seed", 1, "seed")
	experimentName := flag.String("experiment", "all", "one of: all, tables, f4, f5, f6, params, smoke, or robustness[:family] (local/http backends)")
	workers := flag.Int("workers", 0, "evaluation worker budget (0 = GOMAXPROCS); multi-model sweeps divide it")
	backendName := flag.String("backend", "local", "classifier backend: local, http, yolo, or cnn")
	baseURL := flag.String("base-url", "http://127.0.0.1:8080", "llmserve base URL for -backend http")
	apiKey := flag.String("api-key", "", "bearer token for -backend http")
	trainEpochs := flag.Int("train-epochs", 20, "training epochs for -backend yolo/cnn")
	quant := flag.Bool("quant", false, "run -backend yolo/cnn inference on the int8 quantized path")
	runDir := flag.String("run-dir", "", "write run artifacts (manifest + per-sweep report JSON) under this directory")
	morphology := flag.String("morphology", "", "procedural world family for the corpus (empty = legacy study world); comma-list of families for -experiment robustness")
	condition := flag.String("condition", "", "corpus capture condition; comma-list of matrix conditions for -experiment robustness")
	matrixKinds := flag.String("matrix-kinds", "", "comma-list restricting the robustness matrix's backend kinds")
	verbose := flag.Bool("v", false, "stream run progress events to stderr")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := experiment.BuiltinConfig{Coordinates: *coords, Seed: *seed, TrainEpochs: *trainEpochs, Quantized: *quant}
	if *backendName == "http" {
		cfg.BaseURL = *baseURL
		cfg.APIKey = *apiKey
	}
	robustness := *experimentName == "robustness" || strings.HasPrefix(*experimentName, "robustness:")
	if robustness {
		return runRobustness(ctx, robustnessArgs{
			cfg:         cfg,
			experiment:  *experimentName,
			morphology:  *morphology,
			condition:   *condition,
			matrixKinds: *matrixKinds,
			runDir:      *runDir,
			workers:     *workers,
			verbose:     *verbose,
		})
	}
	if *matrixKinds != "" {
		return fmt.Errorf("-matrix-kinds applies only to -experiment robustness")
	}
	cfg.Morphology = *morphology
	cfg.Condition = *condition
	specName := *experimentName
	switch *backendName {
	case "local", "http":
		if *quant {
			return fmt.Errorf("-quant applies only to -backend yolo/cnn")
		}
		switch specName {
		case "all", "tables", "f4", "f5", "f6", "params", "smoke":
		default:
			return fmt.Errorf("unknown experiment %q (want all, tables, f4, f5, f6, params, or smoke)", specName)
		}
	case "yolo":
		specName = "yolo"
		fmt.Printf("training detector baseline (%d epochs%s)...\n", *trainEpochs, quantSuffix(*quant))
	case "cnn":
		specName = "cnn"
		fmt.Printf("training scene-classification CNN (%d epochs%s)...\n", *trainEpochs, quantSuffix(*quant))
	default:
		return fmt.Errorf("unknown backend %q (want local, http, yolo, or cnn)", *backendName)
	}
	spec, err := experiment.Builtin(specName, cfg)
	if err != nil {
		return err
	}

	// Open the artifact store before the run: if another writer (a lab
	// daemon, another llmeval) owns the directory this fails fast
	// instead of after minutes of evaluation, and the deferred Close
	// releases the LOCK even when Ctrl-C cancels the run — so a lab
	// workspace pointed at the same directory can reopen immediately.
	var store *experiment.Store
	if *runDir != "" {
		store, err = experiment.NewStore(*runDir)
		if err != nil {
			return err
		}
		defer func() { _ = store.Close() }()
	}

	res, err := experiment.NewRunner(experiment.RunnerConfig{Workers: *workers}).Run(ctx, spec, eventSink(*verbose))
	if err != nil {
		return err
	}
	if store != nil {
		dir, err := store.Save("", res)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llmeval: run artifacts in %s\n", dir)
	}
	return printExperiment(specName, res)
}

// eventSink streams run progress events to stderr when verbose.
func eventSink(verbose bool) experiment.Sink {
	if !verbose {
		return nil
	}
	return func(ev experiment.Event) {
		switch ev.Kind {
		case experiment.ReportReady:
			fmt.Fprintf(os.Stderr, "llmeval: %s %s/%s report ready\n", ev.Kind, ev.Step, ev.Backend)
		case experiment.RunFailed:
			fmt.Fprintf(os.Stderr, "llmeval: %s %v\n", ev.Kind, ev.Err)
		default:
			fmt.Fprintf(os.Stderr, "llmeval: %s %s\n", ev.Kind, ev.Step)
		}
	}
}

// robustnessArgs carries the flag values the matrix mode consumes.
type robustnessArgs struct {
	cfg         experiment.BuiltinConfig
	experiment  string
	morphology  string
	condition   string
	matrixKinds string
	runDir      string
	workers     int
	verbose     bool
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runRobustness executes the morphology × condition × backend matrix and
// checks every cell against the accuracy envelope. A cell below its
// floor makes the command fail after the full matrix is reported.
func runRobustness(ctx context.Context, args robustnessArgs) error {
	cfg := experiment.MatrixConfig{
		Builtin: args.cfg,
		Runner:  experiment.RunnerConfig{Workers: args.workers},
	}
	cfg.Builtin.MatrixKinds = splitList(args.matrixKinds)
	cfg.Builtin.MatrixConditions = splitList(args.condition)
	if fam, ok := strings.CutPrefix(args.experiment, "robustness:"); ok {
		if args.morphology != "" {
			return fmt.Errorf("-experiment %s already names a morphology; drop -morphology", args.experiment)
		}
		cfg.Morphologies = []string{fam}
	} else {
		cfg.Morphologies = splitList(args.morphology)
	}

	var store *experiment.Store
	if args.runDir != "" {
		var err error
		store, err = experiment.NewStore(args.runDir)
		if err != nil {
			return err
		}
		defer func() { _ = store.Close() }()
	}
	res, err := experiment.RunMatrix(ctx, cfg, store, eventSink(args.verbose))
	if err != nil {
		return err
	}

	fmt.Println("robustness matrix — macro-average accuracy vs envelope floor:")
	fmt.Printf("%-10s %-10s %-10s %9s %7s %5s\n", "world", "condition", "backend", "accuracy", "floor", "ok")
	for _, c := range res.Cells {
		world := c.Morphology
		if world == "" {
			world = "legacy"
		}
		ok := "yes"
		if !c.Pass {
			ok = "NO"
		}
		fmt.Printf("%-10s %-10s %-10s %9.4f %7.2f %5s\n", world, c.Condition, c.Backend, c.Accuracy, c.Floor, ok)
	}
	if fails := res.Failures(); len(fails) > 0 {
		return fmt.Errorf("%d matrix cell(s) below the accuracy envelope (first: %s/%s/%s %.4f < %.2f)",
			len(fails), fails[0].Morphology, fails[0].Condition, fails[0].Backend, fails[0].Accuracy, fails[0].Floor)
	}
	return nil
}

// printExperiment renders a run's reports in the paper's layout.
func printExperiment(name string, res *experiment.Result) error {
	switch name {
	case "all":
		printTables(res)
		printFig4(res)
		if err := printFig5(res); err != nil {
			return err
		}
		if err := printFig6(res); err != nil {
			return err
		}
		printParams(res)
	case "tables":
		printTables(res)
	case "f4":
		printFig4(res)
	case "f5":
		return printFig5(res)
	case "f6":
		return printFig6(res)
	case "params":
		printParams(res)
	case "yolo", "cnn":
		sw := res.Sweep("presence")
		rep := sw.Reports[0]
		printReport(fmt.Sprintf("%s backend — whole-corpus presence report:", rep.Backend), rep.Report)
	default:
		// Named specs without a bespoke layout (e.g. smoke) print every
		// sweep report generically.
		for i := range res.Sweeps {
			sw := &res.Sweeps[i]
			for k := range sw.Reports {
				printReport(fmt.Sprintf("%s/%s:", sw.Name, sw.Reports[k].Backend), sw.Reports[k].Report)
			}
		}
	}
	return nil
}

func printReport(title string, rep *metrics.ClassReport) {
	fmt.Printf("\n%s\n", title)
	fmt.Printf("%-18s %9s %9s %9s %9s\n", "Label", "Precision", "Recall", "F1", "Accuracy")
	for _, ind := range scene.Indicators() {
		c := rep.Of(ind)
		fmt.Printf("%-18s %9.2f %9.2f %9.2f %9.2f\n", ind.String(), c.Precision(), c.Recall(), c.F1(), c.Accuracy())
	}
	p, r, f1, acc := rep.Averages()
	fmt.Printf("%-18s %9.2f %9.2f %9.2f %9.2f\n", "Average", p, r, f1, acc)
}

func printTables(res *experiment.Result) {
	sw := res.Sweep("tables")
	for _, id := range vlm.AllModels() {
		printReport(fmt.Sprintf("Table (%s) — parallel English prompts:", id), sw.Report(string(id)))
	}
}

func printFig4(res *experiment.Result) {
	fmt.Println("\nFig. 4 — recall by prompting strategy:")
	parSweep, seqSweep := res.Sweep("f4:parallel"), res.Sweep("f4:sequential")
	for _, id := range []vlm.ModelID{vlm.Gemini15Pro, vlm.ChatGPT4oMini} {
		fmt.Printf("%s:\n%-18s %9s %9s\n", id, "Indicator", "Parallel", "Sequential")
		par, seq := parSweep.Report(string(id)), seqSweep.Report(string(id))
		var pSum, sSum float64
		for _, ind := range scene.Indicators() {
			pr, sr := par.Of(ind).Recall(), seq.Of(ind).Recall()
			pSum += pr
			sSum += sr
			fmt.Printf("%-18s %9.2f %9.2f\n", ind.Abbrev(), pr, sr)
		}
		fmt.Printf("%-18s %9.2f %9.2f\n", "Average", pSum/6, sSum/6)
	}
}

func printFig5(res *experiment.Result) error {
	fmt.Println("\nFig. 5 — average accuracy per model and majority voting:")
	models := res.Sweep("f5:models")
	for _, id := range vlm.AllModels() {
		_, _, _, acc := models.Report(string(id)).Averages()
		fmt.Printf("%-18s %6.2f%%\n", id, acc*100)
	}
	voting := res.Sweep("f5:voting").Reports[0]
	_, _, _, acc := voting.Report.Averages()
	fmt.Printf("%-18s %6.2f%%  (committee: %v)\n", "majority voting", acc*100, voting.Members)

	labels := make([]string, 0, 5)
	values := make([]float64, 0, 5)
	for _, id := range vlm.AllModels() {
		_, _, _, a := models.Report(string(id)).Averages()
		labels = append(labels, string(id))
		values = append(values, a)
	}
	labels = append(labels, "majority voting")
	values = append(values, acc)
	chart, err := report.BarChart("", labels, values, 50)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(chart)
	return nil
}

func printFig6(res *experiment.Result) error {
	fmt.Println("\nFig. 6 — Gemini recall by prompt language:")
	fmt.Printf("%-18s", "Indicator")
	for _, lang := range prompt.Languages() {
		fmt.Printf(" %9s", lang)
	}
	fmt.Println()
	reports := make(map[prompt.Language]*metrics.ClassReport, 4)
	for _, lang := range prompt.Languages() {
		reports[lang] = res.Sweep("f6:" + lang.String()).Report(string(vlm.Gemini15Pro))
	}
	for _, ind := range scene.Indicators() {
		fmt.Printf("%-18s", ind.Abbrev())
		for _, lang := range prompt.Languages() {
			fmt.Printf(" %9.2f", reports[lang].Of(ind).Recall())
		}
		fmt.Println()
	}
	fmt.Printf("%-18s", "Average")
	for _, lang := range prompt.Languages() {
		_, r, _, _ := reports[lang].Averages()
		fmt.Printf(" %9.2f", r)
	}
	fmt.Println()

	// Grouped chart over indicators per language.
	labels := make([]string, 0, scene.NumIndicators)
	for _, ind := range scene.Indicators() {
		labels = append(labels, ind.Abbrev())
	}
	names := make([]string, 0, 4)
	series := make(map[string][]float64, 4)
	for _, lang := range prompt.Languages() {
		names = append(names, lang.String())
		vals := make([]float64, 0, scene.NumIndicators)
		for _, ind := range scene.Indicators() {
			vals = append(vals, reports[lang].Of(ind).Recall())
		}
		series[lang.String()] = vals
	}
	chart, err := report.GroupedBarChart("", labels, names, series, 40)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(chart)
	return nil
}

func printParams(res *experiment.Result) {
	fmt.Println("\n§IV-C4 — Gemini F1 by sampling parameters:")
	fmt.Printf("%-24s %8s\n", "setting", "avg F1")
	gemini := string(vlm.Gemini15Pro)
	for _, temp := range experiment.ParamTemperatures {
		rep := res.Sweep(experiment.ParamSweepName("temperature", temp)).Report(gemini)
		_, _, f1, _ := rep.Averages()
		fmt.Printf("temperature %-12.1f %8.2f\n", temp, f1)
	}
	for _, topP := range experiment.ParamTopPs {
		rep := res.Sweep(experiment.ParamSweepName("top_p", topP)).Report(gemini)
		_, _, f1, _ := rep.Averages()
		fmt.Printf("top-p %-18.2f %8.2f\n", topP, f1)
	}
}
