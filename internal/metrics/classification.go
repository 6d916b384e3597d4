// Package metrics implements the paper's evaluation arithmetic: binary
// classification metrics (precision, recall, F1, accuracy) for the LLM
// presence/absence experiments, object-detection metrics (greedy IoU
// matching, AP and mAP50) for the YOLO baseline.
package metrics

import (
	"fmt"

	"nbhd/internal/scene"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (prediction, truth) pair.
func (c *Confusion) Add(pred, truth bool) {
	switch {
	case pred && truth:
		c.TP++
	case pred && !truth:
		c.FP++
	case !pred && truth:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded pairs.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN) — the paper's "true positive rate" — or 0
// when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// ClassReport aggregates per-indicator confusions — the layout of the
// paper's Tables III-VI.
type ClassReport struct {
	PerClass [scene.NumIndicators]Confusion
}

// Add records one pair for an indicator.
func (r *ClassReport) Add(ind scene.Indicator, pred, truth bool) error {
	idx := ind.Index()
	if idx < 0 {
		return fmt.Errorf("metrics: unknown indicator %d", int(ind))
	}
	r.PerClass[idx].Add(pred, truth)
	return nil
}

// AddVector records a full presence-vector prediction against truth.
func (r *ClassReport) AddVector(pred, truth [scene.NumIndicators]bool) {
	for i := 0; i < scene.NumIndicators; i++ {
		r.PerClass[i].Add(pred[i], truth[i])
	}
}

// Of returns the confusion for one indicator.
func (r *ClassReport) Of(ind scene.Indicator) Confusion {
	idx := ind.Index()
	if idx < 0 {
		return Confusion{}
	}
	return r.PerClass[idx]
}

// Averages returns the macro averages over classes, matching the paper's
// "Average" table rows.
func (r *ClassReport) Averages() (precision, recall, f1, accuracy float64) {
	for i := 0; i < scene.NumIndicators; i++ {
		precision += r.PerClass[i].Precision()
		recall += r.PerClass[i].Recall()
		f1 += r.PerClass[i].F1()
		accuracy += r.PerClass[i].Accuracy()
	}
	n := float64(scene.NumIndicators)
	return precision / n, recall / n, f1 / n, accuracy / n
}

// Row formats one indicator's metrics in the paper's table layout.
func (r *ClassReport) Row(ind scene.Indicator) string {
	c := r.Of(ind)
	return fmt.Sprintf("%-18s %.3f %.3f %.3f %.3f", ind.String(), c.Precision(), c.Recall(), c.F1(), c.Accuracy())
}
