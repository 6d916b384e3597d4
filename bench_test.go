// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section (see DESIGN.md's experiment index). Each benchmark
// regenerates its artifact at reduced-but-faithful scale and prints the
// same rows or series the paper reports; absolute numbers differ (the
// substrate is synthetic) but the shape — who wins, by roughly what
// factor, where the crossovers fall — reproduces the paper.
//
// Run everything:
//
//	go test -bench=. -benchmem
package nbhd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/core"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/experiment"
	"nbhd/internal/llmclient"
	"nbhd/internal/llmserve"
	"nbhd/internal/metrics"
	"nbhd/internal/nn"
	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/tensor"
	"nbhd/internal/vlm"
	"nbhd/internal/yolo"
)

// Reduced-scale knobs. The paper uses 300 coordinates (1,200 frames) and
// 20 epochs at 640px; pure-Go training uses fewer coordinates and smaller
// renders, which preserves every reported comparison.
const (
	benchSeed          = 1
	benchDetectorCoord = 100 // Table I corpus (400 frames)
	benchDetectorSize  = 64
	benchDetectorEpoch = 25
	benchLLMCoord      = 100 // LLM experiment corpus (400 frames)
)

// detectorPipeline builds the corpus used by the detector benchmarks at
// the given input resolution.
func detectorPipeline(b *testing.B, coords, size int) *core.Pipeline {
	b.Helper()
	pipe, err := core.NewPipeline(core.Config{
		Coordinates:       coords,
		Seed:              benchSeed,
		DetectorInputSize: size,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pipe
}

// presenceReport scores a backend's image-level presence answers on
// examples, asking it in chunks of its preferred batch: how Fig. 5 and
// §IV-B3 score the supervised baselines next to the LLMs.
func presenceReport(tb testing.TB, b backend.Backend, examples []dataset.Example) *metrics.ClassReport {
	tb.Helper()
	inds := scene.Indicators()
	batch := max(b.Capabilities().PreferredBatch, 1)
	var report metrics.ClassReport
	for start := 0; start < len(examples); start += batch {
		chunk := examples[start:min(start+batch, len(examples))]
		items := make([]backend.Item, len(chunk))
		for i := range chunk {
			items[i] = backend.Item{ID: chunk[i].ID, Image: chunk[i].Image}
		}
		res, err := b.Classify(context.Background(), backend.BatchRequest{Items: items, Options: backend.Options{Indicators: inds[:]}})
		if err != nil {
			tb.Fatal(err)
		}
		for i, ans := range res.Answers {
			var pred [scene.NumIndicators]bool
			copy(pred[:], ans)
			report.AddVector(pred, chunk[i].Presence())
		}
	}
	return &report
}

// llmPipeline builds the corpus used by the LLM benchmarks.
func llmPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	pipe, err := core.NewPipeline(core.Config{Coordinates: benchLLMCoord, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	return pipe
}

func llmModel(b *testing.B, id vlm.ModelID) *vlm.Model {
	b.Helper()
	profile, err := vlm.ProfileFor(id)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vlm.NewModel(profile)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// builtinSpec builds a builtin experiment spec over a corpus of the
// given size at the benchmark seed.
func builtinSpec(b *testing.B, name string, coords int) experiment.Spec {
	b.Helper()
	spec, err := experiment.Builtin(name, experiment.BuiltinConfig{Coordinates: coords, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// runSpec executes a spec through the declarative runner.
func runSpec(b *testing.B, spec experiment.Spec) *experiment.Result {
	b.Helper()
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runSpecN runs a spec b.N times under the benchmark timer and returns
// the last result.
func runSpecN(b *testing.B, spec experiment.Spec) *experiment.Result {
	b.Helper()
	var res *experiment.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = runSpec(b, spec)
	}
	b.StopTimer()
	return res
}

func printDetectorTable(title string, res *core.BaselineResult) {
	fmt.Printf("\n%s\n%-18s %9s %9s %9s %9s\n", title, "Label", "Precision", "Recall", "F1", "AP50")
	var pSum, rSum, fSum float64
	for _, ind := range scene.Indicators() {
		c := res.Report.Of(ind)
		fmt.Printf("%-18s %9.3f %9.3f %9.3f %9.3f\n", ind.String(), c.Precision(), c.Recall(), c.F1(), res.AP[ind].AP)
		pSum += c.Precision()
		rSum += c.Recall()
		fSum += c.F1()
	}
	n := float64(scene.NumIndicators)
	fmt.Printf("%-18s %9.3f %9.3f %9.3f %9.3f\n", "Average", pSum/n, rSum/n, fSum/n, res.MAP50)
}

// BenchmarkTable1_YOLOBaseline regenerates Table I: train the detector on
// the 70% split (paper: 20 epochs, batch 16) and report per-class
// precision/recall/F1/mAP50 on the held-out 10%.
func BenchmarkTable1_YOLOBaseline(b *testing.B) {
	var res *core.BaselineResult
	for i := 0; i < b.N; i++ {
		pipe := detectorPipeline(b, benchDetectorCoord, benchDetectorSize)
		var err error
		res, err = pipe.TrainBaseline(core.BaselineOptions{Epochs: benchDetectorEpoch, BatchSize: 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printDetectorTable("Table I — detector baseline (paper avg F1 0.963, mAP50 0.991):", res)
}

// BenchmarkTable2_PromptExamples regenerates Table II: one frame's six
// sequential questions answered by all four models.
func BenchmarkTable2_PromptExamples(b *testing.B) {
	pipe := llmPipeline(b)
	examples, err := pipe.Study.RenderExamples([]int{0}, 96)
	if err != nil {
		b.Fatal(err)
	}
	img := examples[0].Image
	order := prompt.PaperOrder()
	models := make(map[vlm.ModelID]*vlm.Model, 4)
	for _, id := range vlm.AllModels() {
		models[id] = llmModel(b, id)
	}
	answers := make(map[vlm.ModelID][]bool, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range vlm.AllModels() {
			a, err := models[id].Classify(vlm.Request{Image: img, Indicators: order[:], Mode: prompt.Sequential})
			if err != nil {
				b.Fatal(err)
			}
			answers[id] = a
		}
	}
	b.StopTimer()
	// Print ground truth in the same question order as the answers.
	truth := examples[0].Presence()
	ordered := make([]bool, len(order))
	for i, ind := range order {
		ordered[i] = truth[ind.Index()]
	}
	fmt.Printf("\nTable II — example answers (frame %s; questions MR,SR,SW,SL,PL,AP):\n", examples[0].ID)
	fmt.Printf("%-18s %s\n", "ground truth", prompt.FormatAnswers(ordered, prompt.English))
	for _, id := range vlm.AllModels() {
		fmt.Printf("%-18s %s\n", id, prompt.FormatAnswers(answers[id], prompt.English))
	}
}

// BenchmarkFigure2_Augmentation regenerates Fig. 2: baseline vs +flip vs
// +flip+crop per-class F1. The paper finds augmentation does not help and
// hurts directional classes.
func BenchmarkFigure2_Augmentation(b *testing.B) {
	arms := []struct {
		name string
		ops  []dataset.AugmentOp
	}{
		{"baseline", nil},
		{"w/ flipping", dataset.FlippingOps()},
		{"w/ flipping & cropping", dataset.FlippingAndCroppingOps()},
	}
	results := make([]*core.BaselineResult, len(arms))
	for i := 0; i < b.N; i++ {
		for ai, arm := range arms {
			pipe := detectorPipeline(b, 50, 48)
			res, err := pipe.TrainBaseline(core.BaselineOptions{Epochs: 12, BatchSize: 16, Augment: arm.ops})
			if err != nil {
				b.Fatal(err)
			}
			results[ai] = res
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig. 2 — F1 by augmentation arm:\n%-18s", "Indicator")
	for _, arm := range arms {
		fmt.Printf(" %22s", arm.name)
	}
	fmt.Println()
	for _, ind := range scene.Indicators() {
		fmt.Printf("%-18s", ind.Abbrev())
		for ai := range arms {
			fmt.Printf(" %22.3f", results[ai].Report.Of(ind).F1())
		}
		fmt.Println()
	}
}

// BenchmarkFigure3_NoiseSNR regenerates Fig. 3: average F1 of the trained
// detector under Gaussian noise at SNR 5..30 dB. The paper sees >90%
// above 25 dB degrading to ~60% at 5 dB.
func BenchmarkFigure3_NoiseSNR(b *testing.B) {
	type point struct{ snr, f1 float64 }
	var series []point
	for i := 0; i < b.N; i++ {
		pipe := detectorPipeline(b, 75, 48)
		res, err := pipe.TrainBaseline(core.BaselineOptions{Epochs: 18, BatchSize: 16})
		if err != nil {
			b.Fatal(err)
		}
		split, err := pipe.Study.Split(dataset.PaperSplit(), benchSeed+1)
		if err != nil {
			b.Fatal(err)
		}
		test, err := pipe.Study.RenderExamples(split.Test, 48)
		if err != nil {
			b.Fatal(err)
		}
		series = series[:0]
		for _, snr := range dataset.SNRLevels() {
			noisy := dataset.AddNoise(test, snr, benchSeed+3)
			nres, err := pipe.EvaluateDetector(res.Model, noisy)
			if err != nil {
				b.Fatal(err)
			}
			_, _, f1, _ := nres.Report.Averages()
			series = append(series, point{snr: snr, f1: f1})
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig. 3 — F1 vs noise SNR:\n%8s %8s\n", "SNR(dB)", "avg F1")
	for _, p := range series {
		fmt.Printf("%8.0f %8.3f\n", p.snr, p.f1)
	}
}

// BenchmarkFigure4_PromptStrategy regenerates Fig. 4: per-class recall of
// Gemini and ChatGPT under parallel vs sequential prompting (paper:
// parallel 92/83 vs sequential 80/79 average recall).
func BenchmarkFigure4_PromptStrategy(b *testing.B) {
	res := runSpecN(b, builtinSpec(b, "f4", benchLLMCoord))
	ids := []vlm.ModelID{vlm.Gemini15Pro, vlm.ChatGPT4oMini}
	recall := func(id vlm.ModelID, mode prompt.Mode, ind scene.Indicator) float64 {
		return res.Sweep("f4:" + mode.String()).Report(string(id)).Of(ind).Recall()
	}
	fmt.Println("\nFig. 4 — recall by prompting strategy:")
	for _, id := range ids {
		fmt.Printf("%s:\n%-12s %9s %9s\n", id, "Indicator", "Parallel", "Sequential")
		var pSum, sSum float64
		for _, ind := range scene.Indicators() {
			pr := recall(id, prompt.Parallel, ind)
			sr := recall(id, prompt.Sequential, ind)
			pSum += pr
			sSum += sr
			fmt.Printf("%-12s %9.2f %9.2f\n", ind.Abbrev(), pr, sr)
		}
		fmt.Printf("%-12s %9.2f %9.2f\n", "Average", pSum/6, sSum/6)
	}
}

// BenchmarkFigure5_MajorityVoting regenerates Fig. 5: the image-level
// accuracy ladder — trained YOLO detector, each of the four LLMs, and the
// top-three majority vote (paper: YOLO ~99, then 84/88/86/84 -> 88.5).
func BenchmarkFigure5_MajorityVoting(b *testing.B) {
	spec := builtinSpec(b, "f5", benchLLMCoord)
	var f5 *experiment.Result
	var yoloAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The YOLO bar: train on the labeled split, report image-level
		// presence accuracy on the held-out test split.
		detPipe := detectorPipeline(b, 75, 48)
		res, err := detPipe.TrainBaseline(core.BaselineOptions{Epochs: 18, BatchSize: 16})
		if err != nil {
			b.Fatal(err)
		}
		split, err := detPipe.Study.Split(dataset.PaperSplit(), benchSeed+1)
		if err != nil {
			b.Fatal(err)
		}
		test, err := detPipe.Study.RenderExamples(split.Test, 48)
		if err != nil {
			b.Fatal(err)
		}
		det, err := backend.NewYOLO(res.Model, 0.25, 0.45)
		if err != nil {
			b.Fatal(err)
		}
		_, _, _, yoloAcc = presenceReport(b, det, test).Averages()

		f5 = runSpec(b, spec)
	}
	b.StopTimer()
	fmt.Println("\nFig. 5 — image-level accuracy (paper: YOLO ~99, ChatGPT 84, Gemini 88, Claude 86, Grok 84, voting 88.5):")
	fmt.Printf("%-18s %6.2f%%\n", "YOLOv11 (ours)", yoloAcc*100)
	for _, id := range vlm.AllModels() {
		_, _, _, acc := f5.Sweep("f5:models").Report(string(id)).Averages()
		fmt.Printf("%-18s %6.2f%%\n", id, acc*100)
	}
	voting := f5.Sweep("f5:voting").Reports[0]
	_, _, _, acc := voting.Report.Averages()
	fmt.Printf("%-18s %6.2f%%  committee %v\n", "majority voting", acc*100, voting.Members)
}

// BenchmarkFigure6_Languages regenerates Fig. 6: Gemini per-class recall
// under English, Spanish, Chinese, and Bengali prompts (paper averages
// 89.7/76/69/86 with a Chinese sidewalk collapse to ~1%).
func BenchmarkFigure6_Languages(b *testing.B) {
	res := runSpecN(b, builtinSpec(b, "f6", benchLLMCoord))
	reports := make(map[prompt.Language]*metrics.ClassReport, 4)
	for _, lang := range prompt.Languages() {
		reports[lang] = res.Sweep("f6:" + lang.String()).Report(string(vlm.Gemini15Pro))
	}
	fmt.Printf("\nFig. 6 — Gemini recall by prompt language:\n%-12s", "Indicator")
	for _, lang := range prompt.Languages() {
		fmt.Printf(" %9s", lang)
	}
	fmt.Println()
	for _, ind := range scene.Indicators() {
		fmt.Printf("%-12s", ind.Abbrev())
		for _, lang := range prompt.Languages() {
			fmt.Printf(" %9.2f", reports[lang].Of(ind).Recall())
		}
		fmt.Println()
	}
	fmt.Printf("%-12s", "Average")
	for _, lang := range prompt.Languages() {
		_, r, _, _ := reports[lang].Averages()
		fmt.Printf(" %9.2f", r)
	}
	fmt.Println()
}

// BenchmarkTables3to6_PerLLM regenerates Tables III-VI: the full
// per-class precision/recall/F1/accuracy table for each of the four
// models under parallel English prompts.
func BenchmarkTables3to6_PerLLM(b *testing.B) {
	tables := runSpecN(b, builtinSpec(b, "tables", benchLLMCoord)).Sweep("tables")
	titles := map[vlm.ModelID]string{
		vlm.ChatGPT4oMini: "Table III — ChatGPT 4o mini (paper avg: P .66 R .91 F1 .73 Acc .84)",
		vlm.Gemini15Pro:   "Table IV — Gemini 1.5 Pro (paper avg: P .77 R .90 F1 .81 Acc .88)",
		vlm.Grok2:         "Table V — Grok 2 (paper avg: P .75 R .90 F1 .79 Acc .84)",
		vlm.Claude37:      "Table VI — Claude 3.7 (paper avg: P .72 R .90 F1 .78 Acc .86)",
	}
	for _, id := range []vlm.ModelID{vlm.ChatGPT4oMini, vlm.Gemini15Pro, vlm.Grok2, vlm.Claude37} {
		rep := tables.Report(string(id))
		fmt.Printf("\n%s\n%-18s %9s %9s %9s %9s\n", titles[id], "Label", "Precision", "Recall", "F1", "Accuracy")
		for _, ind := range scene.Indicators() {
			c := rep.Of(ind)
			fmt.Printf("%-18s %9.2f %9.2f %9.2f %9.2f\n", ind.String(), c.Precision(), c.Recall(), c.F1(), c.Accuracy())
		}
		p, r, f1, acc := rep.Averages()
		fmt.Printf("%-18s %9.2f %9.2f %9.2f %9.2f\n", "Average", p, r, f1, acc)
	}
}

// paramSweep runs the builtin §IV-C4 spec narrowed to one parameter's
// sweeps and returns Gemini's average F1 at each value.
func paramSweep(b *testing.B, param string, values []float64) []float64 {
	b.Helper()
	spec := builtinSpec(b, "params", benchLLMCoord)
	var sweeps []experiment.SweepSpec
	for _, sw := range spec.Sweeps {
		for _, v := range values {
			if sw.Name == experiment.ParamSweepName(param, v) {
				sweeps = append(sweeps, sw)
			}
		}
	}
	spec.Sweeps = sweeps
	res := runSpecN(b, spec)
	f1s := make([]float64, len(values))
	for i, v := range values {
		_, _, f1s[i], _ = res.Sweep(experiment.ParamSweepName(param, v)).Report(string(vlm.Gemini15Pro)).Averages()
	}
	return f1s
}

// BenchmarkParamTemperature regenerates the §IV-C4 temperature sweep
// (paper: F1 .78/.81/.79 at 0.1/1.0/1.5).
func BenchmarkParamTemperature(b *testing.B) {
	f1s := paramSweep(b, "temperature", experiment.ParamTemperatures)
	fmt.Printf("\n§IV-C4 — Gemini F1 vs temperature:\n")
	for ti, temp := range experiment.ParamTemperatures {
		fmt.Printf("temperature %-6.1f %8.3f\n", temp, f1s[ti])
	}
}

// BenchmarkParamTopP regenerates the §IV-C4 top-p sweep (paper: F1
// .79/.79/.81 at 0.5/0.75/0.95).
func BenchmarkParamTopP(b *testing.B) {
	f1s := paramSweep(b, "top_p", experiment.ParamTopPs)
	fmt.Printf("\n§IV-C4 — Gemini F1 vs top-p:\n")
	for ti, topP := range experiment.ParamTopPs {
		fmt.Printf("top-p %-6.2f %8.3f\n", topP, f1s[ti])
	}
}

// BenchmarkDatasetStats regenerates the §IV-A label counts on the full
// 1,200-frame corpus (paper: SL 206, SW 444, SR 346, MR 505, PL 301,
// AP 125; total 1,927).
func BenchmarkDatasetStats(b *testing.B) {
	var stats dataset.Stats
	for i := 0; i < b.N; i++ {
		st, err := dataset.BuildStudy(dataset.StudyConfig{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		stats = st.Stats()
	}
	b.StopTimer()
	paper := map[scene.Indicator]int{
		scene.Streetlight: 206, scene.Sidewalk: 444, scene.SingleLaneRoad: 346,
		scene.MultilaneRoad: 505, scene.Powerline: 301, scene.Apartment: 125,
	}
	fmt.Printf("\n§IV-A — corpus label counts (1,200 frames):\n%-18s %8s %8s\n", "indicator", "ours", "paper")
	for _, ind := range scene.Indicators() {
		fmt.Printf("%-18s %8d %8d\n", ind.String(), stats.Objects[ind.Index()], paper[ind])
	}
	fmt.Printf("%-18s %8d %8d\n", "total", stats.TotalObjects, 1927)
}

// BenchmarkAblationCommitteeSize extends Fig. 5: accuracy as the voting
// committee grows from one model to all four.
func BenchmarkAblationCommitteeSize(b *testing.B) {
	ev := llmPipeline(b).NewEvaluator(core.EvalConfig{})
	committees := [][]vlm.ModelID{
		{vlm.Gemini15Pro},
		{vlm.Gemini15Pro, vlm.Claude37, vlm.Grok2},
		{vlm.Gemini15Pro, vlm.Claude37, vlm.Grok2, vlm.ChatGPT4oMini},
	}
	accs := make([]float64, len(committees))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, ids := range committees {
			spec := backend.Spec{Kind: "voting", Name: "committee"}
			for _, id := range ids {
				spec.Members = append(spec.Members, backend.Spec{Kind: "vlm", Model: string(id)})
			}
			cb, err := backend.Open(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := ev.EvaluateBackend(context.Background(), cb, core.LLMOptions{})
			if err != nil {
				b.Fatal(err)
			}
			_, _, _, acc := rep.Averages()
			accs[ci] = acc
		}
	}
	b.StopTimer()
	fmt.Printf("\nAblation — committee size vs accuracy:\n")
	for ci, ids := range committees {
		fmt.Printf("%d models %v: %.3f\n", len(ids), ids, accs[ci])
	}
}

// BenchmarkAblationHeadingFusion extends §V future work: per-frame
// accuracy vs coordinate-level fusion of the four headings.
func BenchmarkAblationHeadingFusion(b *testing.B) {
	pipe := llmPipeline(b)
	model := llmModel(b, vlm.Gemini15Pro)
	inds := scene.Indicators()
	var frameAcc, anyAcc, majAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indices := make([]int, pipe.Study.Len())
		for k := range indices {
			indices[k] = k
		}
		examples, err := pipe.Study.RenderExamples(indices, 96)
		if err != nil {
			b.Fatal(err)
		}
		var frameReport metrics.ClassReport
		anyRight, majRight, fusedTotal := 0, 0, 0
		for start := 0; start+3 < len(examples); start += 4 {
			perHeading := make([][scene.NumIndicators]bool, 0, 4)
			var truthAny [scene.NumIndicators]bool
			for k := 0; k < 4; k++ {
				answers, err := model.Classify(vlm.Request{Image: examples[start+k].Image, Indicators: inds[:]})
				if err != nil {
					b.Fatal(err)
				}
				var pred [scene.NumIndicators]bool
				copy(pred[:], answers)
				truth := pipe.Study.Frames[start+k].Scene.Presence()
				frameReport.AddVector(pred, truth)
				perHeading = append(perHeading, pred)
				for ki := range truth {
					truthAny[ki] = truthAny[ki] || truth[ki]
				}
			}
			anyFused, err := ensemble.FuseHeadings(perHeading, ensemble.FuseAny)
			if err != nil {
				b.Fatal(err)
			}
			majFused, err := ensemble.FuseHeadings(perHeading, ensemble.FuseMajority)
			if err != nil {
				b.Fatal(err)
			}
			for ki := range anyFused {
				if anyFused[ki] == truthAny[ki] {
					anyRight++
				}
				if majFused[ki] == truthAny[ki] {
					majRight++
				}
				fusedTotal++
			}
		}
		_, _, _, frameAcc = frameReport.Averages()
		anyAcc = float64(anyRight) / float64(fusedTotal)
		majAcc = float64(majRight) / float64(fusedTotal)
	}
	b.StopTimer()
	fmt.Printf("\nAblation — multi-frame fusion (§V future work), coordinate-level truth:\n")
	fmt.Printf("per-frame accuracy:           %.3f\n", frameAcc)
	fmt.Printf("any-heading fused accuracy:   %.3f (recall-oriented; inflates FPs)\n", anyAcc)
	fmt.Printf("majority-heading fused:       %.3f\n", majAcc)
}

// Micro-benchmarks for the substrate hot paths.

func BenchmarkRenderFrame96(b *testing.B) {
	pipe := llmPipeline(b)
	fr := pipe.Study.Frames[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.Render(fr.Scene, render.Config{Width: 96, Height: 96}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerceive(b *testing.B) {
	pipe := llmPipeline(b)
	examples, err := pipe.Study.RenderExamples([]int{0}, 96)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlm.Perceive(examples[0].Image); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorSweep sweeps the four builtin models over 40
// coordinates in one frame-major walk, each worker rendering into
// buffers it reuses; -benchmem shows what one walk allocates. Every
// iteration builds a fresh pipeline, outside the timer.
func BenchmarkEvaluatorSweep(b *testing.B) {
	ctx := context.Background()
	backends := make([]backend.Backend, 0, len(vlm.AllModels()))
	for _, id := range vlm.AllModels() {
		bk, err := backend.Open(ctx, backend.Spec{Kind: "vlm", Model: string(id)})
		if err != nil {
			b.Fatal(err)
		}
		backends = append(backends, bk)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipe, err := core.NewPipeline(core.Config{Coordinates: 40, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := pipe.NewEvaluator(core.EvalConfig{}).EvaluateBackendSet(ctx, backends, core.LLMOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerRun runs the builtin f4 spec at 40 coordinates through
// Runner.Run, corpus build included: its two sweeps under different
// prompt modes share one walk of the corpus. -benchmem shows what the
// whole run allocates.
func BenchmarkRunnerRun(b *testing.B) {
	b.Run("f4", func(b *testing.B) {
		spec, err := experiment.Builtin("f4", experiment.BuiltinConfig{Coordinates: 40, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWideChannels are paper-realistic backbone widths for the
// quantization benchmark pair. The repo's training default ([8 16 32])
// is deliberately tiny for fast CI training, which leaves its GEMMs
// memory-bound and understates what int8 buys; YOLOv11-Nano-class
// backbones run 16-256 channels, where the compute-bound GEMM dominates
// the forward pass and the quantized path's advantage is visible.
var benchWideChannels = [3]int{32, 64, 128}

// BenchmarkDetectorForward pairs the f32 and int8 inference paths on one
// batched detector forward pass (8 frames) at paper-scale widths; the
// int8/f32 ratio is the quantization speedup the serving gate requires.
func BenchmarkDetectorForward(b *testing.B) {
	const batch = 8
	pipe := detectorPipeline(b, 2, benchDetectorSize)
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	examples, err := pipe.Study.RenderExamples(idx, benchDetectorSize)
	if err != nil {
		b.Fatal(err)
	}
	imgs := make([]*render.Image, batch)
	for i := range examples {
		imgs[i] = examples[i].Image
	}
	for _, quant := range []bool{false, true} {
		name := "f32"
		if quant {
			name = "int8"
		}
		b.Run(name, func(b *testing.B) {
			model, err := yolo.New(yolo.Config{InputSize: benchDetectorSize, Channels: benchWideChannels, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if err := model.SetQuantized(quant); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.DetectBatch(imgs, 0.25, 0.45); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkPredictBatch pairs the f32 and int8 paths on the CNN
// baseline's batched presence prediction: 8 frames through the wide
// [32, 64, 128] backbone, and (served/f32) the 16-frame batches of the
// default [8, 16, 32] backbone that the gateway's cnn route serves.
// served/inflight2 is the gateway under load: two goroutines each
// predict a 16-frame batch at once, so a fan-out nested inside another
// shows here as it does in serve-cnn-miss.
func BenchmarkPredictBatch(b *testing.B) {
	for _, c := range []struct {
		name     string
		channels [3]int
		batch    int
		quant    []bool
	}{
		{"", benchWideChannels, 8, []bool{false, true}},
		{"served/", [3]int{}, 16, []bool{false}},
	} {
		model, err := classify.New(classify.Config{Channels: c.channels, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		pipe := detectorPipeline(b, (c.batch+3)/4, model.InputSize())
		idx := make([]int, c.batch)
		for i := range idx {
			idx[i] = i
		}
		examples, err := pipe.Study.RenderExamples(idx, model.InputSize())
		if err != nil {
			b.Fatal(err)
		}
		imgs := make([]*render.Image, c.batch)
		for i := range examples {
			imgs[i] = examples[i].Image
		}
		for _, quant := range c.quant {
			name := c.name + "f32"
			if quant {
				name = c.name + "int8"
			}
			b.Run(name, func(b *testing.B) {
				if err := model.SetQuantized(quant); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := model.PredictBatch(imgs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			})
		}
		if c.name != "served/" {
			continue
		}
		b.Run(c.name+"inflight2", func(b *testing.B) {
			if err := model.SetQuantized(false); err != nil {
				b.Fatal(err)
			}
			const inflight = 2
			errs := make(chan error, inflight)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for g := 0; g < inflight; g++ {
					go func() {
						_, err := model.PredictBatch(imgs)
						errs <- err
					}()
				}
				for g := 0; g < inflight; g++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(inflight*c.batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkConvForward measures one batched convolution forward pass at
// detector-backbone scale: batch 16, 8->16 channels, 3x3 kernel, 32x32
// spatial. Run with -benchmem: the allocation count is the scorecard for
// the pooled compute layer.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	conv, err := nn.NewConv2D(8, 16, 3, 1, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(16, 8, 32, 32)
	x.UniformInit(1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := conv.Forward(x)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutScratch(out)
	}
}

// BenchmarkConvBackward measures one forward+backward convolution step at
// the same scale (backward needs the forward caches, so each iteration
// pays for both; subtract BenchmarkConvForward for the backward share).
func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	conv, err := nn.NewConv2D(8, 16, 3, 1, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(16, 8, 32, 32)
	x.UniformInit(1, rng)
	grad := tensor.MustNew(16, 16, 32, 32)
	grad.UniformInit(1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := conv.Forward(x)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutScratch(out)
		gradIn, err := conv.Backward(grad)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutScratch(gradIn)
	}
}

// BenchmarkTrainEpoch measures one full detector training epoch (70% of
// 100 frames at 48px, batch 16) on a persistent model — the steady-state
// per-epoch cost of the Table I/Fig. 5 benchmarks. Run with -benchmem:
// allocations/op is the headline number for zero-allocation training.
func BenchmarkTrainEpoch(b *testing.B) {
	st, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 25, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	split, err := st.Split(dataset.PaperSplit(), benchSeed+1)
	if err != nil {
		b.Fatal(err)
	}
	train, err := st.RenderExamples(split.Train, 48)
	if err != nil {
		b.Fatal(err)
	}
	// The int8 variant trains with quantized mode on, so each epoch pays
	// the post-epoch weight re-quantization on top of the f32 backward
	// pass — the steady-state cost of keeping a served quantized model
	// fresh during continued training.
	for _, quant := range []bool{false, true} {
		name := "f32"
		if quant {
			name = "int8"
		}
		b.Run(name, func(b *testing.B) {
			model, err := yolo.New(yolo.Config{InputSize: 48, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if err := model.SetQuantized(quant); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := model.Train(train, yolo.TrainConfig{Epochs: 1, BatchSize: 16, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuantDrift reports the int8 accuracy-drift numbers as
// benchmark metrics: it runs the supervised cnn spec
// once per path — identical corpus, seed, and training — and reports
// the max per-class accuracy drift and the macro-average accuracy drift
// between the f32 and int8 reports. The build-failing envelope for
// these numbers lives in internal/experiment's
// TestQuantizedAccuracyEnvelope; this benchmark only reports them.
func BenchmarkQuantDrift(b *testing.B) {
	run := func(quant bool) *metrics.ClassReport {
		spec, err := experiment.Builtin("cnn", experiment.BuiltinConfig{
			Coordinates: 10, Seed: 9, TrainEpochs: 3, Quantized: quant,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		return res.Sweep("presence").Report("cnn")
	}
	for i := 0; i < b.N; i++ {
		f32 := run(false)
		int8 := run(true)
		var maxAccDrift float64
		for c := range f32.PerClass {
			if d := math.Abs(f32.PerClass[c].Accuracy() - int8.PerClass[c].Accuracy()); d > maxAccDrift {
				maxAccDrift = d
			}
		}
		_, _, _, fa := f32.Averages()
		_, _, _, qa := int8.Averages()
		b.ReportMetric(maxAccDrift, "max_class_acc_drift")
		b.ReportMetric(math.Abs(fa-qa), "macro_acc_drift")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	a := tensor.MustNew(128, 128)
	c := tensor.MustNew(128, 128)
	dst := tensor.MustNew(128, 128)
	for i := range a.Data {
		a.Data[i] = float32(i%13) * 0.1
		c.Data[i] = float32(i%7) * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.MatMulInto(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPBackend_Sweep measures the remote evaluation path: one
// model swept over the corpus by the engine through the HTTP backend —
// llmserve in-process, bounded in-flight requests, lossless image
// transport. The comparison point is BenchmarkTables3to6_PerLLM's
// in-process sweeps; the gap is pure serialization + HTTP overhead.
func BenchmarkHTTPBackend_Sweep(b *testing.B) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: 25, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := llmserve.NewBuiltin(llmserve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := llmclient.New(llmclient.Config{
		BaseURL:     ts.URL,
		BaseBackoff: time.Millisecond,
		Encoding:    llmclient.EncodeRawF32,
	})
	if err != nil {
		b.Fatal(err)
	}
	hb, err := backend.NewHTTP(backend.HTTPConfig{Client: client, Model: vlm.Gemini15Pro, MaxInFlight: 8})
	if err != nil {
		b.Fatal(err)
	}
	ev := pipe.NewEvaluator(core.EvalConfig{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ev.EvaluateBackend(ctx, hb, core.LLMOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			_, _, _, acc := rep.Averages()
			b.ReportMetric(acc, "accuracy")
		}
	}
}
