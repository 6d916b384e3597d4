// Additional ablation benchmarks beyond the paper's own tables: design
// choices DESIGN.md calls out (perception resolution for the simulated
// LLMs, labeler error rates feeding the supervised pipeline).
package nbhd

import (
	"context"
	"fmt"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/core"
	"nbhd/internal/dataset"
	"nbhd/internal/labelme"
	"nbhd/internal/prompt"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// BenchmarkAblationPerceptionResolution sweeps the resolution of frames
// sent to the simulated LLMs. The paper sends 640x640 to the real APIs;
// the simulation's perception degrades on thin structures at low
// resolution, mirroring real VLM behavior on small inputs.
func BenchmarkAblationPerceptionResolution(b *testing.B) {
	sizes := []int{48, 96, 128}
	accs := make([]float64, len(sizes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, size := range sizes {
			pipe, err := core.NewPipeline(core.Config{Coordinates: 50, Seed: benchSeed, LLMRenderSize: size})
			if err != nil {
				b.Fatal(err)
			}
			gemini, err := backend.NewVLM(llmModel(b, vlm.Gemini15Pro))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := pipe.NewEvaluator(core.EvalConfig{}).EvaluateBackend(context.Background(), gemini, core.LLMOptions{})
			if err != nil {
				b.Fatal(err)
			}
			_, _, _, acc := rep.Averages()
			accs[si] = acc
		}
	}
	b.StopTimer()
	fmt.Printf("\nAblation — LLM accuracy vs input resolution:\n")
	for si, size := range sizes {
		fmt.Printf("%4dpx  %.3f\n", size, accs[si])
	}
}

// BenchmarkAblationLabelerError sweeps the human labeler's miss rate and
// measures annotation quality against ground truth — quantifying the §V
// limitation that "human error in labeling training data could impact
// the reliability of the model".
func BenchmarkAblationLabelerError(b *testing.B) {
	missRates := []float64{0, 0.05, 0.15, 0.30}
	type stat struct{ kept, truth int }
	stats := make([]stat, len(missRates))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, err := core.NewPipeline(core.Config{Coordinates: 50, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for mi, rate := range missRates {
			labeler, err := labelme.NewLabeler(labelme.LabelerConfig{MissRate: rate, BoxJitter: 0.01, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			kept, truth := 0, 0
			for _, fr := range pipe.Study.Frames {
				rec, err := labeler.Annotate(fr.Scene, 640, 640)
				if err != nil {
					b.Fatal(err)
				}
				kept += len(rec.Shapes)
				truth += len(fr.Scene.Objects)
			}
			stats[mi] = stat{kept: kept, truth: truth}
		}
	}
	b.StopTimer()
	fmt.Printf("\nAblation — labeler miss rate vs annotation coverage:\n")
	fmt.Printf("%9s %9s %9s %9s\n", "miss rate", "labeled", "truth", "coverage")
	for mi, rate := range missRates {
		cov := float64(stats[mi].kept) / float64(stats[mi].truth)
		fmt.Printf("%9.2f %9d %9d %9.3f\n", rate, stats[mi].kept, stats[mi].truth, cov)
	}
}

// BenchmarkComparisonSceneClassifier regenerates the §IV-B3 comparison
// with prior work: the paper's detection pipeline vs the VGG-16/19 and
// ResNet-18 scene-classification approach (here: a multi-label CNN
// predicting presence directly). Both train on the same split with the
// same protocol; the paper reports its detector "generally beats the
// accuracy of the scene classification models used in previous research".
func BenchmarkComparisonSceneClassifier(b *testing.B) {
	const size, epochs = 48, 18
	var detAcc, clsAcc float64
	var detF1, clsF1 float64
	for i := 0; i < b.N; i++ {
		pipe, err := core.NewPipeline(core.Config{Coordinates: 75, Seed: benchSeed, DetectorInputSize: size})
		if err != nil {
			b.Fatal(err)
		}
		res, err := pipe.TrainBaseline(core.BaselineOptions{Epochs: epochs, BatchSize: 16})
		if err != nil {
			b.Fatal(err)
		}
		split, err := pipe.Study.Split(dataset.PaperSplit(), benchSeed+1)
		if err != nil {
			b.Fatal(err)
		}
		train, err := pipe.Study.RenderExamples(split.Train, size)
		if err != nil {
			b.Fatal(err)
		}
		test, err := pipe.Study.RenderExamples(split.Test, size)
		if err != nil {
			b.Fatal(err)
		}
		detRep, err := pipe.DetectorPresenceReport(res.Model, test, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		_, _, detF1, detAcc = detRep.Averages()

		cls, err := classify.New(classify.Config{InputSize: size, Seed: benchSeed + 7})
		if err != nil {
			b.Fatal(err)
		}
		if err := cls.Train(train, classify.TrainConfig{Epochs: epochs, BatchSize: 16, Seed: benchSeed + 8}); err != nil {
			b.Fatal(err)
		}
		clsRep, err := cls.Evaluate(test, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		_, _, clsF1, clsAcc = clsRep.Averages()
	}
	b.StopTimer()
	fmt.Printf("\n§IV-B3 — detection pipeline vs scene-classification prior work (image-level):\n")
	fmt.Printf("%-24s %8s %8s\n", "approach", "avg F1", "avg acc")
	fmt.Printf("%-24s %8.3f %8.3f\n", "detector (ours)", detF1, detAcc)
	fmt.Printf("%-24s %8.3f %8.3f\n", "scene classifier", clsF1, clsAcc)
	fmt.Println("note: on the synthetic substrate image-level presence saturates for")
	fmt.Println("both approaches; the paper's gap comes from real-scene clutter the")
	fmt.Println("substitution does not reproduce. The detector additionally localizes.")
}

// BenchmarkAblationVotingVsBestMember quantifies the voting gain per
// indicator class rather than on the average alone.
func BenchmarkAblationVotingVsBestMember(b *testing.B) {
	res := runSpecN(b, builtinSpec(b, "f5", 60))
	gemini := res.Sweep("f5:models").Report(string(vlm.Gemini15Pro))
	voting := res.Sweep("f5:voting").Reports[0].Report
	var gemAcc, voteAcc [scene.NumIndicators]float64
	for k, ind := range scene.Indicators() {
		gemAcc[k] = gemini.Of(ind).Accuracy()
		voteAcc[k] = voting.Of(ind).Accuracy()
	}
	fmt.Printf("\nAblation — per-class accuracy, best member vs committee:\n")
	fmt.Printf("%-18s %9s %9s %9s\n", "indicator", "gemini", "voting", "delta")
	for k, ind := range scene.Indicators() {
		fmt.Printf("%-18s %9.3f %9.3f %+9.3f\n", ind.String(), gemAcc[k], voteAcc[k], voteAcc[k]-gemAcc[k])
	}
}

// BenchmarkAblationFewShotLanguage extends Fig. 6 with the paper's §V
// mitigation: in-context examples close part of the Chinese-prompt recall
// gap toward English.
func BenchmarkAblationFewShotLanguage(b *testing.B) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: 60, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	indices := make([]int, pipe.Study.Len())
	for i := range indices {
		indices[i] = i
	}
	examples, err := pipe.Study.RenderExamples(indices, 96)
	if err != nil {
		b.Fatal(err)
	}
	inds := scene.Indicators()
	model := llmModel(b, vlm.Gemini15Pro)
	shots := []int{0, 2, 4, 8}
	recalls := make([]float64, len(shots))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, k := range shots {
			tp := make([]int, scene.NumIndicators)
			fn := make([]int, scene.NumIndicators)
			for ei, ex := range examples {
				answers, err := model.Classify(vlm.Request{
					Image:      ex.Image,
					Indicators: inds[:],
					Language:   prompt.Chinese,
					Shots:      k,
				})
				if err != nil {
					b.Fatal(err)
				}
				truth := pipe.Study.Frames[ei].Scene.Presence()
				for ki := range inds {
					if truth[ki] {
						if answers[ki] {
							tp[ki]++
						} else {
							fn[ki]++
						}
					}
				}
			}
			var sum float64
			for ki := range inds {
				if tp[ki]+fn[ki] > 0 {
					sum += float64(tp[ki]) / float64(tp[ki]+fn[ki])
				}
			}
			recalls[si] = sum / 6
		}
	}
	b.StopTimer()
	fmt.Printf("\nAblation — few-shot mitigation of the Chinese prompt gap (§V):\n")
	for si, k := range shots {
		fmt.Printf("%d-shot  avg recall %.3f\n", k, recalls[si])
	}
}
