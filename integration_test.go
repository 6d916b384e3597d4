// Cross-module integration tests: the full Fig. 1 pipeline exercised
// through every substrate boundary, including the HTTP services.
package nbhd

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/geo"
	"nbhd/internal/gsv"
	"nbhd/internal/llmclient"
	"nbhd/internal/llmserve"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// TestEndToEndOverHTTP drives the complete loop a downstream user would
// run against real services: fetch imagery from the street-view API,
// classify it through the LLM API with injected failures, majority-vote,
// and score against ground truth.
func TestEndToEndOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep in -short mode")
	}
	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Street-view service with an API key.
	imgSrv, err := gsv.NewServer(study, gsv.ServerConfig{APIKeys: []string{"test-key"}})
	if err != nil {
		t.Fatal(err)
	}
	imgTS := httptest.NewServer(imgSrv.Handler())
	defer imgTS.Close()
	imgClient, err := gsv.NewClient(gsv.ClientConfig{BaseURL: imgTS.URL, APIKey: "test-key", CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}

	// LLM service with 5% injected 429s.
	llmSrv, err := llmserve.NewBuiltin(llmserve.Config{Failures: llmserve.FailureConfig{Prob429: 0.05, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	llmTS := httptest.NewServer(llmSrv.Handler())
	defer llmTS.Close()
	llm, err := llmclient.New(llmclient.Config{BaseURL: llmTS.URL, MaxRetries: 8, BaseBackoff: time.Millisecond, MaxRetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	inds := scene.Indicators()
	committee := []vlm.ModelID{vlm.Gemini15Pro, vlm.Claude37, vlm.Grok2}

	var report metrics.ClassReport
	for i := range study.Frames {
		fr := &study.Frames[i]
		img, err := imgClient.FetchImage(ctx, fr.Scene.Point.Coordinate, fr.Scene.Heading, 96)
		if err != nil {
			t.Fatalf("fetch frame %d: %v", i, err)
		}
		votes := make([][]bool, 0, len(committee))
		for _, id := range committee {
			answers, err := llm.Classify(ctx, id, img, inds[:], llmclient.ClassifyOptions{})
			if err != nil {
				t.Fatalf("classify frame %d with %s: %v", i, id, err)
			}
			votes = append(votes, answers)
		}
		voted, err := ensemble.Vote(votes)
		if err != nil {
			t.Fatal(err)
		}
		var pred [scene.NumIndicators]bool
		copy(pred[:], voted)
		report.AddVector(pred, fr.Scene.Presence())
	}
	_, _, _, acc := report.Averages()
	if acc < 0.75 {
		t.Errorf("end-to-end committee accuracy %.3f implausibly low", acc)
	}
	// The image fetch path hit the nearest-frame index: every request
	// was for an exact frame coordinate, so the street-view service
	// must have served all of them under the key.
	if imgSrv.Usage("test-key") != study.Len() {
		t.Errorf("street-view usage = %d, want %d", imgSrv.Usage("test-key"), study.Len())
	}
}

// TestDetectorBeatsCommittee asserts the paper's RQ1 ordering at
// integration scale: the trained detector's image-level accuracy on its
// test split exceeds the training-free committee's on the same frames.
func TestDetectorBeatsCommittee(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	pipe, err := core.NewPipeline(core.Config{Coordinates: 60, Seed: 3, DetectorInputSize: 64, LLMRenderSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.TrainBaseline(core.BaselineOptions{Epochs: 20, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5 compares image-level accuracy: convert detections to
	// presence predictions on the detector's test split.
	split, err := pipe.Study.Split(dataset.PaperSplit(), 3+1)
	if err != nil {
		t.Fatal(err)
	}
	test, err := pipe.Study.RenderExamples(split.Test, 64)
	if err != nil {
		t.Fatal(err)
	}
	det, err := backend.NewYOLO(res.Model, 0.25, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, detAcc := presenceReport(t, det, test).Averages()

	committee, err := ensemble.PaperCommittee()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := backend.NewCommittee(committee)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pipe.NewEvaluator(core.EvalConfig{}).EvaluateBackend(context.Background(), cb, core.LLMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, llmAcc := rep.Averages()
	if detAcc <= llmAcc {
		t.Errorf("detector accuracy %.3f should beat committee accuracy %.3f (paper RQ1)", detAcc, llmAcc)
	}
}

// TestHeadingConsistency checks a study invariant across the geo/scene
// boundary: the four frames of one coordinate share the sample point and
// road class, so at most one road indicator appears across the group.
func TestHeadingConsistency(t *testing.T) {
	study, err := dataset.BuildStudy(dataset.StudyConfig{Coordinates: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start+3 < study.Len(); start += 4 {
		var single, multi bool
		for k := 0; k < 4; k++ {
			sc := study.Frames[start+k].Scene
			single = single || sc.Presence()[scene.SingleLaneRoad.Index()]
			multi = multi || sc.Presence()[scene.MultilaneRoad.Index()]
			if sc.Point.RoadClass != study.Frames[start].Scene.Point.RoadClass {
				t.Fatalf("frame group at %d mixes road classes", start)
			}
		}
		if single && multi {
			t.Fatalf("coordinate group at %d has both road classes across headings", start)
		}
	}
	// Headings follow the paper's N/E/S/W request order.
	want := geo.CardinalHeadings()
	for start := 0; start+3 < study.Len(); start += 4 {
		for k := 0; k < 4; k++ {
			if study.Frames[start+k].Scene.Heading != want[k] {
				t.Fatalf("frame %d heading %v, want %v", start+k, study.Frames[start+k].Scene.Heading, want[k])
			}
		}
	}
}
