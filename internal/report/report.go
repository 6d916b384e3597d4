// Package report renders evaluation results as terminal-friendly
// artifacts: ASCII bar charts for the paper's figure-style comparisons.
package report

import (
	"fmt"
	"strings"
)

// BarChart renders one labeled series as horizontal bars scaled to
// maxWidth characters. Values must be in [0,1] (fractions/accuracies).
func BarChart(title string, labels []string, values []float64, maxWidth int) (string, error) {
	if len(labels) != len(values) {
		return "", fmt.Errorf("report: %d labels vs %d values", len(labels), len(values))
	}
	if len(labels) == 0 {
		return "", fmt.Errorf("report: empty chart")
	}
	if maxWidth < 10 {
		return "", fmt.Errorf("report: width %d too narrow", maxWidth)
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for i, l := range labels {
		v := values[i]
		if v < 0 || v > 1 {
			return "", fmt.Errorf("report: value %f for %q outside [0,1]", v, l)
		}
		bar := strings.Repeat("█", int(v*float64(maxWidth)+0.5))
		fmt.Fprintf(&b, "%-*s │%-*s %6.1f%%\n", labelWidth, l, maxWidth, bar, v*100)
	}
	return b.String(), nil
}

// GroupedBarChart renders several series side by side per label (the
// layout of Figs. 2, 4, and 6). series maps series name to per-label
// values.
func GroupedBarChart(title string, labels []string, seriesNames []string, series map[string][]float64, maxWidth int) (string, error) {
	if len(labels) == 0 || len(seriesNames) == 0 {
		return "", fmt.Errorf("report: empty grouped chart")
	}
	if maxWidth < 10 {
		return "", fmt.Errorf("report: width %d too narrow", maxWidth)
	}
	for _, name := range seriesNames {
		vals, ok := series[name]
		if !ok {
			return "", fmt.Errorf("report: series %q missing", name)
		}
		if len(vals) != len(labels) {
			return "", fmt.Errorf("report: series %q has %d values for %d labels", name, len(vals), len(labels))
		}
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	nameWidth := 0
	for _, n := range seriesNames {
		if len(n) > nameWidth {
			nameWidth = len(n)
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for li, l := range labels {
		for si, name := range seriesNames {
			v := series[name][li]
			if v < 0 || v > 1 {
				return "", fmt.Errorf("report: value %f in series %q outside [0,1]", v, name)
			}
			prefix := strings.Repeat(" ", labelWidth)
			if si == 0 {
				prefix = fmt.Sprintf("%-*s", labelWidth, l)
			}
			bar := strings.Repeat("█", int(v*float64(maxWidth)+0.5))
			fmt.Fprintf(&b, "%s %-*s │%-*s %6.1f%%\n", prefix, nameWidth, name, maxWidth, bar, v*100)
		}
	}
	return b.String(), nil
}
