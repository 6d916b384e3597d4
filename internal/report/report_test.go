package report

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	out, err := BarChart("Fig. 5", []string{"yolo", "gemini"}, []float64{0.99, 0.88}, 40)
	if err != nil {
		t.Fatalf("BarChart: %v", err)
	}
	if !strings.Contains(out, "Fig. 5") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "99.0%") || !strings.Contains(out, "88.0%") {
		t.Errorf("missing percentages:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("lines = %d", len(lines))
	}
	// Longer value means longer bar.
	yoloBar := strings.Count(lines[1], "█")
	gemBar := strings.Count(lines[2], "█")
	if yoloBar <= gemBar {
		t.Errorf("bar lengths %d vs %d", yoloBar, gemBar)
	}
}

func TestBarChartValidation(t *testing.T) {
	if _, err := BarChart("", []string{"a"}, []float64{0.5, 0.6}, 40); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := BarChart("", nil, nil, 40); err == nil {
		t.Error("empty chart accepted")
	}
	if _, err := BarChart("", []string{"a"}, []float64{1.5}, 40); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := BarChart("", []string{"a"}, []float64{0.5}, 4); err == nil {
		t.Error("narrow width accepted")
	}
}

func TestGroupedBarChart(t *testing.T) {
	labels := []string{"SL", "SW"}
	names := []string{"parallel", "sequential"}
	series := map[string][]float64{
		"parallel":   {0.9, 0.8},
		"sequential": {0.7, 0.6},
	}
	out, err := GroupedBarChart("Fig. 4", labels, names, series, 30)
	if err != nil {
		t.Fatalf("GroupedBarChart: %v", err)
	}
	for _, want := range []string{"SL", "SW", "parallel", "sequential", "90.0%", "60.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestGroupedBarChartValidation(t *testing.T) {
	labels := []string{"a"}
	if _, err := GroupedBarChart("", labels, []string{"x"}, map[string][]float64{}, 30); err == nil {
		t.Error("missing series accepted")
	}
	if _, err := GroupedBarChart("", labels, []string{"x"}, map[string][]float64{"x": {0.1, 0.2}}, 30); err == nil {
		t.Error("ragged series accepted")
	}
	if _, err := GroupedBarChart("", nil, nil, nil, 30); err == nil {
		t.Error("empty chart accepted")
	}
}
