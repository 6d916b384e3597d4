package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"nbhd/internal/scene"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 4 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Precision(); got != 0.5 {
		t.Errorf("Precision = %f", got)
	}
	if got := c.Recall(); got != 0.5 {
		t.Errorf("Recall = %f", got)
	}
	if got := c.F1(); got != 0.5 {
		t.Errorf("F1 = %f", got)
	}
	if got := c.Accuracy(); got != 0.5 {
		t.Errorf("Accuracy = %f", got)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion should report zeros")
	}
	// Perfect predictor.
	c = Confusion{TP: 10, TN: 10}
	if c.Precision() != 1 || c.Recall() != 1 || c.F1() != 1 || c.Accuracy() != 1 {
		t.Error("perfect confusion should report ones")
	}
	// All negatives predicted negative: precision/recall undefined -> 0.
	c = Confusion{TN: 5}
	if c.Precision() != 0 || c.Recall() != 0 {
		t.Error("no-positive case should report zero P/R")
	}
	if c.Accuracy() != 1 {
		t.Error("all-TN accuracy should be 1")
	}
}

func TestF1HarmonicMean(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 8} // P=0.8, R=0.5
	want := 2 * 0.8 * 0.5 / 1.3
	if got := c.F1(); math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %f, want %f", got, want)
	}
}

func TestClassReport(t *testing.T) {
	var r ClassReport
	if err := r.Add(scene.Streetlight, true, true); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(scene.Streetlight, false, true); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(scene.Indicator(99), true, true); err == nil {
		t.Error("unknown indicator accepted")
	}
	c := r.Of(scene.Streetlight)
	if c.TP != 1 || c.FN != 1 {
		t.Errorf("streetlight confusion = %+v", c)
	}
	if r.Of(scene.Indicator(99)).Total() != 0 {
		t.Error("unknown indicator should return empty confusion")
	}
}

func TestClassReportAddVector(t *testing.T) {
	var r ClassReport
	pred := [scene.NumIndicators]bool{true, false, true, false, true, false}
	truth := [scene.NumIndicators]bool{true, true, false, false, true, false}
	r.AddVector(pred, truth)
	if c := r.Of(scene.Streetlight); c.TP != 1 {
		t.Error("SL should be TP")
	}
	if c := r.Of(scene.Sidewalk); c.FN != 1 {
		t.Error("SW should be FN")
	}
	if c := r.Of(scene.SingleLaneRoad); c.FP != 1 {
		t.Error("SR should be FP")
	}
	if c := r.Of(scene.MultilaneRoad); c.TN != 1 {
		t.Error("MR should be TN")
	}
}

func TestClassReportAverages(t *testing.T) {
	var r ClassReport
	// Give every class a perfect record.
	for _, ind := range scene.Indicators() {
		if err := r.Add(ind, true, true); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := r.Add(ind, false, false); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	p, rec, f1, acc := r.Averages()
	if p != 1 || rec != 1 || f1 != 1 || acc != 1 {
		t.Errorf("averages = %f %f %f %f", p, rec, f1, acc)
	}
}

func TestClassReportRow(t *testing.T) {
	var r ClassReport
	if err := r.Add(scene.Powerline, true, true); err != nil {
		t.Fatalf("Add: %v", err)
	}
	row := r.Row(scene.Powerline)
	if len(row) == 0 || row[:9] != "powerline" {
		t.Errorf("Row = %q", row)
	}
}

func box(x0, y0, x1, y1 float64) scene.Rect {
	return scene.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

func TestAPPerfectDetector(t *testing.T) {
	images := []ImageEval{
		{
			ImageID: "a",
			Truth: []scene.Object{
				{Indicator: scene.Streetlight, BBox: box(0.1, 0.1, 0.2, 0.5)},
				{Indicator: scene.Sidewalk, BBox: box(0.0, 0.6, 0.3, 0.9)},
			},
			Dets: []Detection{
				{Class: scene.Streetlight, BBox: box(0.1, 0.1, 0.2, 0.5), Score: 0.9},
				{Class: scene.Sidewalk, BBox: box(0.0, 0.6, 0.3, 0.9), Score: 0.8},
			},
		},
	}
	ap, err := APPerClass(images, IoU50)
	if err != nil {
		t.Fatalf("APPerClass: %v", err)
	}
	if got := ap[scene.Streetlight].AP; got != 1 {
		t.Errorf("streetlight AP = %f, want 1", got)
	}
	if got := ap[scene.Sidewalk].AP; got != 1 {
		t.Errorf("sidewalk AP = %f, want 1", got)
	}
	// Classes with no GT and no detections have AP 0 by convention.
	if got := ap[scene.Apartment].AP; got != 0 {
		t.Errorf("apartment AP = %f, want 0", got)
	}
}

func TestAPMissedDetection(t *testing.T) {
	images := []ImageEval{
		{
			ImageID: "a",
			Truth: []scene.Object{
				{Indicator: scene.Powerline, BBox: box(0, 0, 1, 0.3)},
				{Indicator: scene.Powerline, BBox: box(0, 0.4, 1, 0.7)},
			},
			Dets: []Detection{
				{Class: scene.Powerline, BBox: box(0, 0, 1, 0.3), Score: 0.9},
			},
		},
	}
	ap, err := APPerClass(images, IoU50)
	if err != nil {
		t.Fatalf("APPerClass: %v", err)
	}
	// One of two GTs found at precision 1: AP = 0.5.
	if got := ap[scene.Powerline].AP; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("powerline AP = %f, want 0.5", got)
	}
	if ap[scene.Powerline].GroundTruths != 2 || ap[scene.Powerline].Detections != 1 {
		t.Errorf("counts = %+v", ap[scene.Powerline])
	}
}

func TestAPFalsePositiveRanking(t *testing.T) {
	// A high-scoring FP before the TP drags AP below 1.
	images := []ImageEval{
		{
			ImageID: "a",
			Truth: []scene.Object{
				{Indicator: scene.Apartment, BBox: box(0.5, 0.2, 0.9, 0.6)},
			},
			Dets: []Detection{
				{Class: scene.Apartment, BBox: box(0.0, 0.0, 0.1, 0.1), Score: 0.95}, // FP
				{Class: scene.Apartment, BBox: box(0.5, 0.2, 0.9, 0.6), Score: 0.90}, // TP
			},
		},
	}
	ap, err := APPerClass(images, IoU50)
	if err != nil {
		t.Fatalf("APPerClass: %v", err)
	}
	if got := ap[scene.Apartment].AP; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AP = %f, want 0.5 (FP ranked first)", got)
	}
}

func TestAPDuplicateDetectionsPenalized(t *testing.T) {
	// Two detections on the same GT: second is FP (greedy one-to-one).
	images := []ImageEval{
		{
			ImageID: "a",
			Truth: []scene.Object{
				{Indicator: scene.Streetlight, BBox: box(0.1, 0.1, 0.2, 0.5)},
			},
			Dets: []Detection{
				{Class: scene.Streetlight, BBox: box(0.1, 0.1, 0.2, 0.5), Score: 0.9},
				{Class: scene.Streetlight, BBox: box(0.1, 0.1, 0.21, 0.5), Score: 0.8},
			},
		},
	}
	ap, err := APPerClass(images, IoU50)
	if err != nil {
		t.Fatalf("APPerClass: %v", err)
	}
	if got := ap[scene.Streetlight].AP; got != 1 {
		// Recall reaches 1 at rank 1 with precision 1; the later FP does
		// not reduce interpolated AP.
		t.Errorf("AP = %f, want 1", got)
	}
	rep, err := DetectionReport(images, 0.5, IoU50)
	if err != nil {
		t.Fatalf("DetectionReport: %v", err)
	}
	c := rep.Of(scene.Streetlight)
	if c.TP != 1 || c.FP != 1 {
		t.Errorf("duplicate detection confusion = %+v, want 1 TP / 1 FP", c)
	}
}

func TestAPThresholdValidation(t *testing.T) {
	if _, err := APPerClass(nil, 0); err == nil {
		t.Error("IoU 0 accepted")
	}
	if _, err := APPerClass(nil, 1); err == nil {
		t.Error("IoU 1 accepted")
	}
	if _, err := DetectionReport(nil, 0.5, 0); err == nil {
		t.Error("DetectionReport IoU 0 accepted")
	}
}

func TestMeanAP(t *testing.T) {
	if got := MeanAP(nil); got != 0 {
		t.Errorf("empty MeanAP = %f", got)
	}
	m := map[scene.Indicator]APResult{
		scene.Streetlight: {AP: 1.0},
		scene.Sidewalk:    {AP: 0.5},
	}
	if got := MeanAP(m); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MeanAP = %f", got)
	}
}

func TestDetectionReportScoreThreshold(t *testing.T) {
	images := []ImageEval{
		{
			ImageID: "a",
			Truth: []scene.Object{
				{Indicator: scene.Sidewalk, BBox: box(0, 0.6, 0.3, 0.9)},
			},
			Dets: []Detection{
				{Class: scene.Sidewalk, BBox: box(0, 0.6, 0.3, 0.9), Score: 0.3}, // below threshold
			},
		},
	}
	rep, err := DetectionReport(images, 0.5, IoU50)
	if err != nil {
		t.Fatalf("DetectionReport: %v", err)
	}
	c := rep.Of(scene.Sidewalk)
	if c.TP != 0 || c.FN != 1 {
		t.Errorf("low-score detection should be dropped: %+v", c)
	}
}

func TestDetectionReportCrossImageIsolation(t *testing.T) {
	// A detection in image B must not match ground truth in image A.
	images := []ImageEval{
		{
			ImageID: "a",
			Truth:   []scene.Object{{Indicator: scene.Apartment, BBox: box(0.5, 0.2, 0.9, 0.6)}},
		},
		{
			ImageID: "b",
			Dets:    []Detection{{Class: scene.Apartment, BBox: box(0.5, 0.2, 0.9, 0.6), Score: 0.99}},
		},
	}
	rep, err := DetectionReport(images, 0.5, IoU50)
	if err != nil {
		t.Fatalf("DetectionReport: %v", err)
	}
	c := rep.Of(scene.Apartment)
	if c.TP != 0 || c.FP != 1 || c.FN != 1 {
		t.Errorf("cross-image matching leaked: %+v", c)
	}
}

// Property: AP is always within [0,1].
func TestAPRangeProperty(t *testing.T) {
	f := func(scores []float64, hits []bool) bool {
		n := len(scores)
		if len(hits) < n {
			n = len(hits)
		}
		images := []ImageEval{{ImageID: "p"}}
		for i := 0; i < n; i++ {
			gt := box(0.1, 0.1, 0.3, 0.3)
			images[0].Truth = append(images[0].Truth, scene.Object{Indicator: scene.Powerline, BBox: box(0.05, float64(i%3)*0.3+0.01, 0.4, float64(i%3)*0.3+0.2)})
			d := Detection{Class: scene.Powerline, Score: math.Abs(math.Mod(scores[i], 1))}
			if hits[i] {
				d.BBox = images[0].Truth[i].BBox
			} else {
				d.BBox = gt // likely low IoU with its own GT row
			}
			images[0].Dets = append(images[0].Dets, d)
		}
		ap, err := APPerClass(images, IoU50)
		if err != nil {
			return false
		}
		v := ap[scene.Powerline].AP
		return v >= 0 && v <= 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
